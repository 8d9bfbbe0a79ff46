import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import jacobi_oracle
import maxclass
from maxclass.algebra import (GradedAlgebra, InvalidParameter, NotClosed,
                              ParseError, ValidationFailed, load_custom, preset,
                              subalgebra, validate)
from maxclass.cochain import Cochain, jacobi_defect
from maxclass.dixmier import IdealSplit
from maxclass.fields import QQ


def test_m0_brackets():
    m0 = preset("m0")
    assert m0.bracket(1, 5) == 1
    assert m0.bracket(5, 1) == -1
    assert m0.bracket(2, 3) == 0
    assert m0.bracket(3, 3) == 0


def test_m2_brackets():
    m2 = preset("m2")
    assert m2.bracket(1, 2) == 1
    assert m2.bracket(2, 3) == 1
    assert m2.bracket(3, 2) == -1
    assert m2.bracket(3, 4) == 0


def test_l1_brackets():
    l1 = preset("l1")
    assert l1.bracket(2, 5) == 3
    assert l1.bracket(5, 2) == -3
    assert l1.bracket(3, 3) == 0


def test_truncations():
    alg = preset("m0n", 6)
    assert alg.bracket(1, 5) == 1
    assert alg.bracket(1, 6) == 0
    assert not alg.contains(7)
    assert len(alg.generators_up_to(alg.truncation)) == 6
    quo = preset("l1quot", 5)
    assert quo.bracket(2, 3) == 1
    assert quo.bracket(2, 4) == 0


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
    assert b.bracket(2, 3) == 0
    assert not b.contains(1)
    m2 = preset("m2")
    b2 = subalgebra(m2, lambda i: i != 2)
    assert b2.bracket(1, 3) == 1
    with pytest.raises(NotClosed):
        # e_1 and e_2 generate everything, but e_3 is missing
        subalgebra(m2, lambda i: i in (1, 2))


def test_subalgebra_of_a_finite_index_set_checks_every_pair():
    """A finite index set is checked on every pair of its members, not
    only on those up to the bound that predicates are checked to."""
    with pytest.raises(NotClosed, match=r"\[e1, e100\] hits e101"):
        subalgebra(preset("m0"), [1, 100])
    with pytest.raises(NotClosed, match=r"\[e70, e75\] hits e145"):
        subalgebra(preset("l1"), [70, 75])
    # [e1, e100] = e101 is a member, and [e1, e101] leaves m0(101)
    closed = subalgebra(preset("m0n", 101), [1, 100, 101])
    assert closed.generators_up_to(200) == [1, 100, 101]


def test_closure_check_evaluates_no_bracket_whose_sum_is_a_member(monkeypatch):
    """A pair whose sum is a member is closed whatever its bracket: the
    splits and the abelian ideal of m2 evaluate no bracket at all."""
    calls = []
    bracket = GradedAlgebra.bracket
    monkeypatch.setattr(GradedAlgebra, "bracket",
                        lambda alg, i, j: calls.append((i, j)) or bracket(alg, i, j))
    m0, m2 = preset("m0"), preset("m2")
    IdealSplit(m0, 1), IdealSplit(m2, 2), subalgebra(m2, lambda i: i >= 3)
    assert calls == []
    with pytest.raises(NotClosed):
        subalgebra(m2, lambda i: i in (1, 2))
    assert calls == [(1, 2)]


@pytest.mark.parametrize("build", [
    lambda: preset("m0n", 12), lambda: preset("lk", 3), lambda: preset("l1quot", 13),
    lambda: subalgebra(preset("m2"), lambda i: i >= 3),
    lambda: subalgebra(preset("m0n", 24), {2, 3, 5, 8, 9, 13, 14, 20, 21, 24})],
    ids=["m0n:12", "lk:3", "l1quot:13", "m2|i>=3", "holes"])
def test_generators_up_to_from_a_cold_memo(build):
    """A new algebra's memo is empty and scans membership up to the
    largest weight asked so far.  Asked at shuffled weights, every answer
    is the plain scan, and appending to an answer changes no later one."""
    alg = build()
    weights = list(range(-2, 45)) * 2
    random.Random(12).shuffle(weights)
    for k in weights:
        got = alg.generators_up_to(k)
        assert got == [i for i in range(1, k + 1) if alg.contains(i)], k
        got += [k + 1, 0]


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
    assert alg.bracket(1, 2) == 1
    assert alg.bracket(2, 1) == -1
    assert validate(alg, 10).violations == []
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(CUSTOM))
    from maxclass.algebra import load_custom_file
    alg2 = load_custom_file(str(path))
    assert alg2.bracket(2, 3) == 1


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


def _with_entry(entry):
    return dict(CUSTOM, brackets=CUSTOM["brackets"] + [entry])


@pytest.mark.parametrize("entry", [
    {"i": 0, "j": 3, "terms": [{"num": 1, "den": 1, "k": 3}]},
    {"i": 1, "j": 9, "terms": [{"num": 1, "den": 1, "k": 10}]},
    {"i": 2, "j": 4, "terms": [{"num": 1, "den": 1, "k": 6}]},
], ids=["i=0", "j>n", "k>n"])
def test_load_custom_rejects_an_index_outside_the_truncation(entry):
    with pytest.raises(ParseError):
        load_custom(_with_entry(entry))


def test_load_custom_rejects_a_zero_denominator():
    with pytest.raises(ParseError):
        load_custom(_with_entry({"i": 2, "j": 3, "terms": [{"num": 1, "den": 0, "k": 5}]}))


def test_load_custom_rejects_a_repeated_entry():
    with pytest.raises(ParseError):
        load_custom(_with_entry({"i": 1, "j": 2, "terms": [{"num": 2, "den": 1, "k": 3}]}))


def test_load_custom_sums_the_terms_of_one_entry():
    doc = dict(CUSTOM, brackets=[
        {"i": 1, "j": 2, "terms": [{"num": 1, "den": 2, "k": 3}, {"num": 1, "den": 3, "k": 3}]}])
    assert load_custom(doc).bracket(1, 2) == Fraction(5, 6)


def test_missing_truncation_rejected():
    with pytest.raises((ParseError, ValidationFailed)):
        load_custom({"name": "x", "brackets": []})


# --- the one Jacobi check, against the triple loop ---------------------------

@st.composite
def _truncated_tables(draw):
    n = draw(st.integers(4, 12))
    pairs = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1 - i)]
    values = draw(st.lists(st.integers(-2, 2), min_size=len(pairs), max_size=len(pairs)))
    table = {p: Fraction(v) for p, v in zip(pairs, values)}
    key = f"test:table:{n}:{sorted(table.items())}"
    alg = GradedAlgebra("table", lambda i, j: table.get((i, j), Fraction(0)),
                        lambda i: True, truncation=n, key=key)
    return alg, draw(st.integers(3, 3 * n))


@settings(max_examples=200, deadline=None)
@given(_truncated_tables())
def test_validate_equals_the_triple_loop_on_random_tables(case):
    alg, bound = case
    assert validate(alg, bound).violations == jacobi_oracle.violations(alg, bound)


@settings(max_examples=200, deadline=None)
@given(_truncated_tables())
def test_jacobi_defect_equals_d_applied_twice_on_random_tables(case):
    alg, _ = case
    for i in alg.generators_up_to(alg.truncation):
        assert jacobi_defect(alg, i) == jacobi_oracle.defect(alg, i), i


@pytest.mark.parametrize("name,param", [("m0", None), ("m2", None), ("l1", None),
                                        ("lk", 3), ("m0n", 9), ("m2n", 9), ("l1quot", 11)])
def test_jacobi_defect_equals_d_applied_twice_on_the_presets(name, param):
    alg = preset(name, param)
    for i in alg.generators_up_to(46):
        assert jacobi_defect(alg, i) == jacobi_oracle.defect(alg, i) == Cochain(QQ), i


@pytest.mark.parametrize("name,param", [("m0", None), ("m2", None), ("l1", None),
                                        ("lk", 3), ("m0n", 9), ("m2n", 9), ("l1quot", 11)])
def test_validate_equals_the_triple_loop_on_the_presets(name, param):
    alg = preset(name, param)
    assert validate(alg, 40).violations == jacobi_oracle.violations(alg, 40) == []
