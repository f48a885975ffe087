"""Acceptance criteria, one test per criterion, each printing a PASS line
with its runtime against the stated budget.  All equalities are exact
(symbolic canonical forms or exact rationals); run with -s to see the lines.
"""

import random
import time
from gtsingular.cli import main
from gtsingular.distributions import DistVector
from gtsingular.gtformulas import verify_homomorphism
from gtsingular.suites import (
    module_suite,
    appendix_suite,
    functional_suite,
    generic_suite,
    ring_suite,
    sample_basis,
    singularity_suite,
)
from gtsingular.tableau import Shift, canonical_context
from tests_helpers import label_value, random_dist_vector

CTX = canonical_context()


def budget(name: str, limit: float):
    class _Budget:
        def __enter__(self):
            self.t0 = time.perf_counter()
            return self

        def __exit__(self, exc_type, exc, tb):
            elapsed = time.perf_counter() - self.t0
            if exc_type is None:
                print(f"PASS {name}: {elapsed:.2f}s (budget {limit:.0f}s)")
                assert elapsed < limit, f"{name} exceeded budget: {elapsed:.2f}s >= {limit}s"
            else:
                print(f"FAIL {name} after {elapsed:.2f}s")
            return False

    return _Budget()


def test_criterion_1_ring_axioms():
    with budget("criterion 1: skew-ring axioms, 200 random triples", 10):
        report = ring_suite(n=3, count=200)
    assert report["ok"], report["failures"][:5]
    assert report["total"] == 200


def test_criterion_2_homomorphism_n2():
    with budget("criterion 2: commutator identities, order 2, 16 pairs", 5):
        report = verify_homomorphism(2)
    assert report["ok"] and report["total"] == 16 and report["passed"] == 16


def test_criterion_3_homomorphism_n3():
    with budget("criterion 3: commutator identities, order 3, 81 pairs", 300):
        report = verify_homomorphism(3)
    assert report["ok"] and report["total"] == 81 and report["passed"] == 81


def test_criterion_4_singular_closure():
    with budget("criterion 4: products stay at most 1-singular (100 + anchor)", 30):
        report = singularity_suite(CTX, count=100)
    assert report["ok"], report["failures"][:5]
    assert report["total"] == 101


def test_criterion_5_functional_consistency():
    with budget("criterion 5: expansion vs direct function action, 100 pairs", 30):
        report = functional_suite(CTX, count=100)
    assert report["ok"], report["failures"][:5]


def test_criterion_6_module_relations():
    with budget("criterion 6: module commutators, 49 pairs x 4 vectors", 600):
        report = module_suite(CTX)
    assert report["ok"], report["failures"][:2]
    assert report["total"] == 49 * len(sample_basis(CTX)) == 196


def test_criterion_7_relations_and_independence():
    with budget("criterion 7: relations and separating matrix", 5):
        rng = random.Random(77)
        for _ in range(25):
            d = random_dist_vector(rng, CTX)
            again = DistVector.from_terms(
                CTX, [(bv.kind, bv.sigma, c) for bv, c in d.terms.items()]
            )
            assert again == d
        one = CTX.z1_poly ** 0
        z1sq = CTX.z1_poly * CTX.z1_poly
        for m1 in range(-2, 3):
            for m2 in range(m1, 3):
                sigma = Shift({(2, 1): m1, (2, 2): m2})
                gap = m1 - m2
                assert label_value(CTX, "D1", sigma, one) == 1
                assert label_value(CTX, "D1", sigma, z1sq) == gap * gap
                if gap != 0:
                    assert label_value(CTX, "D2", sigma, one) == 0
                    assert label_value(CTX, "D2", sigma, z1sq) == -2 * gap
        # the derived anchor value: unit gap reads exactly -2
        assert label_value(CTX, "D2", Shift.generator(2, 1), z1sq) == -2


def test_criterion_8_appendix_oracle():
    with budget("criterion 8: derivative-tableau oracle intertwines", 60):
        report = appendix_suite(CTX)
    assert report["ok"], report["failures"][:5]
    assert report["total"] == 9 * 6


def test_criterion_9_generic_degeneration():
    with budget("criterion 9: generic orbit action satisfies gl_3", 60):
        report = generic_suite()
    assert report["ok"], report["failures"][:5]
    assert report["total"] == 81 * 6


def test_criterion_10_cli_determinism(tmp_path, capsys, monkeypatch):
    with budget("criterion 10: CLI determinism and exit codes", 10):
        commands = [
            ["phi", "--n", "2", "--gen", "1,2"],
            ["phi", "--n", "3", "--gen", "1,3", "--format", "json"],
            ["act", "--gen", "1,1", "--basis", "D1:id"],
            ["act", "--gen", "2,2", "--basis", "D2:(2,1)+1", "--format", "json"],
            ["classify"],
            ["verify", "--n", "2", "homomorphism"],
        ]
        runs = []
        for _ in range(2):
            outs = []
            for argv in commands:
                code = main(argv)
                outs.append(capsys.readouterr().out)
                assert code == 0, argv
            runs.append(outs)
        assert runs[0] == runs[1]
        # usage errors exit 2
        assert main(["act", "--gen", "1,1", "--basis", "junk"]) == 2
        capsys.readouterr()
        assert main(["verify", "nonsense"]) == 2
        capsys.readouterr()
        # a failing suite exits 1
        import gtsingular.cli as cli_mod

        assert cli_mod.SUITES["homomorphism"] == ("order", "verify_homomorphism")
        monkeypatch.setattr(
            cli_mod,
            "verify_homomorphism",
            lambda n: {
                "suite": "homomorphism",
                "total": 1,
                "passed": 0,
                "ok": False,
                "failures": [{"pair": "stub"}],
            },
        )
        assert main(["verify", "--n", "2", "homomorphism"]) == 1
        capsys.readouterr()
