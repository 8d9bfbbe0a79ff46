import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import maxclass
from maxclass.algebra import (InvalidParameter, NotClosed, ParseError,
                              ValidationFailed, load_custom, preset,
                              subalgebra, validate)


def test_m0_brackets():
    m0 = preset("m0")
    assert m0.bracket(1, 5) == [(1, 6)]
    assert m0.bracket(5, 1) == [(-1, 6)]
    assert m0.bracket(2, 3) == []
    assert m0.bracket(3, 3) == []


def test_m2_brackets():
    m2 = preset("m2")
    assert m2.bracket(1, 2) == [(1, 3)]
    assert m2.bracket(2, 3) == [(1, 5)]
    assert m2.bracket(3, 2) == [(-1, 5)]
    assert m2.bracket(3, 4) == []


def test_l1_brackets():
    l1 = preset("l1")
    assert l1.bracket(2, 5) == [(3, 7)]
    assert l1.bracket(5, 2) == [(-3, 7)]
    assert l1.bracket(3, 3) == []


def test_truncations():
    alg = preset("m0n", 6)
    assert alg.bracket(1, 5) == [(1, 6)]
    assert alg.bracket(1, 6) == []
    assert not alg.contains(7)
    assert alg.dim() == 6
    quo = preset("l1quot", 5)
    assert quo.bracket(2, 3) == [(1, 5)]
    assert quo.bracket(2, 4) == []


def test_preset_parameter_validation():
    with pytest.raises(InvalidParameter):
        preset("m0n", 1)
    with pytest.raises(InvalidParameter):
        preset("lk")
    with pytest.raises(ValueError):
        preset("nope")


@pytest.mark.parametrize("name", ["m0", "m2", "l1"])
def test_unparametrized_preset_refuses_a_parameter(name):
    with pytest.raises(InvalidParameter):
        preset(name, 5)


@pytest.mark.parametrize("name,param", [("m0", None), ("m2", None),
                                        ("l1", None), ("lk", 2),
                                        ("m0n", 7), ("m2n", 7), ("l1quot", 7)])
def test_presets_are_lie_algebras(name, param):
    report = validate(preset(name, param), 20)
    assert report.violations == []


def test_subalgebra_closure():
    m0 = preset("m0")
    b = subalgebra(m0, lambda i: i >= 2)
    assert b.bracket(2, 3) == []
    assert not b.contains(1)
    m2 = preset("m2")
    b2 = subalgebra(m2, lambda i: i != 2)
    assert b2.bracket(1, 3) == [(1, 4)]
    with pytest.raises(NotClosed):
        # e_1 and e_2 generate everything, but e_3 is missing
        subalgebra(m2, lambda i: i in (1, 2))


def test_subalgebra_keys_are_distinct():
    m2 = preset("m2")
    assert subalgebra(m2, lambda i: i != 2).key != subalgebra(m2, lambda i: i >= 3).key
    long = subalgebra(m2, range(3, 60))
    other = subalgebra(m2, [3, 4, 5, 6, 7, 8, 9, 10, 200])
    assert long.key != other.key and long != other


CUSTOM = {
    "name": "heis5",
    "truncation": 5,
    "brackets": [
        {"i": 1, "j": 2, "terms": [{"num": 1, "den": 1, "k": 3}]},
        {"i": 1, "j": 3, "terms": [{"num": 1, "den": 1, "k": 4}]},
        {"i": 1, "j": 4, "terms": [{"num": 1, "den": 1, "k": 5}]},
        {"i": 2, "j": 3, "terms": [{"num": 1, "den": 1, "k": 5}]},
    ],
}


def test_load_custom_roundtrip(tmp_path):
    alg = load_custom(CUSTOM)
    assert alg.bracket(1, 2) == [(1, 3)]
    assert alg.bracket(2, 1) == [(-1, 3)]
    assert validate(alg, 10).violations == []
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(CUSTOM))
    from maxclass.algebra import load_custom_file
    alg2 = load_custom_file(str(path))
    assert alg2.bracket(2, 3) == [(1, 5)]


def test_custom_key_is_the_same_in_every_process():
    """The key of a custom algebra must not depend on the per-process
    salt of hash()."""
    src = str(Path(maxclass.__file__).resolve().parents[1])
    script = ("import json, sys; from maxclass.algebra import load_custom; "
              "print(load_custom(json.loads(sys.argv[1])).key)")
    keys = set()
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", script, json.dumps(CUSTOM)],
                              env=env, capture_output=True, text=True, timeout=60, check=True)
        keys.add(proc.stdout.strip())
    assert keys == {load_custom(CUSTOM).key}


def test_load_custom_rejects_bad_grading():
    bad = {"name": "bad", "truncation": 5,
           "brackets": [{"i": 1, "j": 2, "terms": [{"num": 1, "den": 1, "k": 4}]}]}
    with pytest.raises((ValidationFailed, ParseError)):
        load_custom(bad)


def test_load_custom_rejects_jacobi_violation():
    bad = {"name": "bad", "truncation": 6,
           "brackets": [
               {"i": 1, "j": 2, "terms": [{"num": 1, "den": 1, "k": 3}]},
               {"i": 1, "j": 3, "terms": [{"num": 1, "den": 1, "k": 4}]},
               {"i": 2, "j": 3, "terms": [{"num": 1, "den": 1, "k": 5}]},
               {"i": 1, "j": 4, "terms": [{"num": 0, "den": 1, "k": 5}]},
               {"i": 2, "j": 4, "terms": [{"num": 1, "den": 1, "k": 6}]},
               {"i": 1, "j": 5, "terms": [{"num": 7, "den": 1, "k": 6}]},
           ]}
    with pytest.raises(ValidationFailed):
        load_custom(bad)


def test_missing_truncation_rejected():
    with pytest.raises((ParseError, ValidationFailed)):
        load_custom({"name": "x", "brackets": []})
