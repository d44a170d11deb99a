import json
import random

import phinlab.sampling as sampling
from phinlab.errors import Undecided
from phinlab.interpolation import consistency_check
from phinlab.modules import is_weakly_admissible
from phinlab.linalg import jordan_partition
from phinlab.sampling import (
    non_admissible_witness,
    random_generic_module,
    random_nilpotent,
    random_wa_module,
    sweep,
)


def test_random_wa_module_is_admissible():
    rng = random.Random(7)
    for _ in range(15):
        d = random_wa_module(rng)
        report = is_weakly_admissible(d)
        assert report.admissible is True
        jumps = d.jumps("k0")
        assert jumps[0] >= 0
        assert all(a < b for a, b in zip(jumps, jumps[1:]))


def test_random_wa_module_falls_back_to_the_split_ordinary_shape(monkeypatch):
    calls = []

    def undecided(d):
        calls.append(d)
        raise Undecided("no verdict")

    monkeypatch.setattr(sampling, "_admissible", undecided)
    d = random_wa_module(random.Random(11), 3)
    # every sampled flag was undecided, so the fallback built d
    assert len(calls) == 200
    assert is_weakly_admissible(d).admissible is True


def test_random_nilpotent_realizes_partition():
    rng = random.Random(3)
    for _ in range(20):
        nil, shape = random_nilpotent(rng, 5)
        assert jordan_partition(nil).parts == shape.parts


def test_non_admissible_witness():
    d = non_admissible_witness()
    assert is_weakly_admissible(d).admissible is False


def test_random_generic_module_passes_consistency():
    rng = random.Random(19)
    for _ in range(5):
        d = random_generic_module(rng)
        report = consistency_check(d)
        assert report["status"] == "pass"


def test_sweep_deterministic_and_green():
    first = sweep(5)
    second = sweep(5)
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
    assert first["passed"] is True
    assert first["case_count"] == len(first["cases"])
    kinds = {c["id"].rsplit("-", 1)[0] for c in first["cases"]}
    assert "integrality-neg" in kinds and "consistency-neg" in kinds
