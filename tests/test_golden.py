"""Golden texts of the cochains built from derivations of the exterior
algebra (right inverses, cup products, w and omega variants) and of the
sl(2) primitive vectors, pinned as files under tests/golden/; and the
command-line output of every verify suite, of two l1 Betti tables and
of both generating functions, pinned byte for byte under
tests/golden/cli/; and the long exact sequence reports of both splits,
pinned under tests/golden/exactness/."""
import os

import pytest

from maxclass.cli import main
from maxclass.cochain import Cochain, cochain_text
from maxclass.dixmier import m0_split, m2_split, verify_exactness
from maxclass.explicit import cup_formula, d_minus1, d_minus2_class, omega, w_cocycle
from maxclass.fields import QQ, PrimeField

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def _three_terms():
    return (Cochain.monomial(QQ, (2, 5), QQ.of(2))
            + Cochain.monomial(QQ, (3, 4), QQ.of(-1))
            + Cochain.monomial(QQ, (4, 6, 9), QQ.of(1, 2)))


CASES = {
    "d_minus1_3_7": lambda: d_minus1(Cochain.monomial(QQ, (3, 7))),
    "d_minus1_three_terms": lambda: d_minus1(_three_terms()),
    "d_minus2_class_4_5": lambda: d_minus2_class((4, 5)),
    "cup_2__5": lambda: cup_formula((2,), (5,)),
    "cup_3__7": lambda: cup_formula((3,), (7,)),
    "w_4_6_fp3": lambda: w_cocycle((4, 6), PrimeField(3)),
    "omega_5_7_floor3": lambda: omega((5, 7), floor=3),
}


def _golden(name):
    with open(os.path.join(GOLDEN, f"{name}.txt")) as fh:
        return fh.read().strip()


def test_derivation_built_cochains_match_goldens(capsys):
    for name, build in CASES.items():
        assert cochain_text(build()) == _golden(name), name
    assert main(["sl2", "--q", "3", "--k", "7"]) == 0
    assert capsys.readouterr().out.strip() == _golden("sl2_q3_k7")


CLI_GOLDEN = os.path.join(GOLDEN, "cli")
SUITES = ["euler", "goncharova", "gf", "dixmier", "laplacian", "bordemann", "fibonacci",
          "charp"]
BETTI_L1 = ["betti", "--algebra", "l1", "--qmax", "3", "--kmax", "30", "--format", "csv"]
CLI_CASES = {f"verify_{s}.json": ["verify", s, "--format", "json"] for s in SUITES} \
    | {f"verify_{s}.txt": ["verify", s] for s in SUITES} \
    | {"betti_l1_q3_k30_q.csv": BETTI_L1,
       "betti_l1_q3_k30_fp2147483647.csv": BETTI_L1 + ["--field", "fp:2147483647"]} \
    | {f"gf_{a}.txt": ["gf", "--algebra", a] for a in ("m0", "m2")} \
    | {f"gf_{a}.json": ["gf", "--algebra", a, "--format", "json"] for a in ("m0", "m2")}


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_output_is_byte_identical(name, capsys):
    assert main(CLI_CASES[name]) == 0
    with open(os.path.join(CLI_GOLDEN, name), newline="") as fh:
        assert capsys.readouterr().out == fh.read()


EXACTNESS_GOLDEN = os.path.join(GOLDEN, "exactness")
EXACTNESS_CASES = {f"{name}_{tag}.json": (split, qmax, kmax, field)
                   for name, split in (("m0", m0_split), ("m2", m2_split))
                   for tag, qmax, kmax, field in (("q3_k20_q", 3, 20, QQ),
                                                  ("q2_k12_fp3", 2, 12, PrimeField(3)))}


@pytest.mark.parametrize("name", sorted(EXACTNESS_CASES))
def test_exactness_report_is_byte_identical(name):
    split, qmax, kmax, field = EXACTNESS_CASES[name]
    with open(os.path.join(EXACTNESS_GOLDEN, name)) as fh:
        assert verify_exactness(split(), qmax, kmax, field).to_json() + "\n" == fh.read()
