import dataclasses
import random

import pytest

import artifact.globalreport as gr
from artifact.arith import primes_upto
from artifact.corpus import resolve
from artifact.globalreport import (
    CONDITIONAL_FM,
    EXCLUDED,
    NOT_A_COUNTEREXAMPLE,
    PROVEN,
    UNDETERMINED,
    IsogenyEvidence,
    _good_trace,
    _proven_isogeny,
    analyze,
    cm_classify,
    frey_mazur_classify,
    hasse_cm,
    isogeny_survey,
    isogeny_witness,
    semistable_survey,
)
from artifact.localsolver import NON_EMPTY, genus
from artifact.weierstrass import SingularModelError, WeierstrassModel

W = WeierstrassModel
E11 = W(0, -1, 1, -10, -20)
E37 = W(0, 0, 1, -1, 0)
E121 = W(0, -1, 1, -7, 10)


def test_isogeny_witness_11a1():
    ev = isogeny_witness(E11, 13)
    assert ev is not None and ev.degree == 5 and ev.certainty == PROVEN
    assert ev.kernel_polynomial is not None


def test_isogeny_witness_absent_when_degrees_square():
    # (5/29) = 1, so 11a1's 5-isogeny is no witness for p = 29
    assert isogeny_witness(E11, 29) is None


def test_isogeny_survey_37a1_all_excluded():
    sv = isogeny_survey(E37)
    assert all(ev.certainty == EXCLUDED for ev in sv.values())
    for ev in sv.values():
        assert ev.excluding_prime is not None


def test_isogeny_survey_11a1():
    sv = isogeny_survey(E11)
    assert sv[5].certainty == PROVEN
    assert sv[2].certainty == EXCLUDED
    assert sv[7].certainty == EXCLUDED


def test_analyze_121b1_isogeny_degree_11():
    # (11/13) = -1 and 121b1 has CM by sqrt(-11): a rational 11-isogeny.
    # Certifying its kernel reads every f_k up to k = 7.
    r = analyze(E121, 13)
    assert r.overall.kind == "HasRationalPoint"
    assert r.overall.detail["q"] == 11


def test_cm_classify():
    assert cm_classify(E121) == -11
    assert cm_classify(W(0, 0, 1, 0, 0)) == -3          # j = 0
    assert cm_classify(W(0, 0, 0, -1, 0)) == -4         # j = 1728
    assert cm_classify(resolve("361a2")) == -19
    assert cm_classify(resolve("26569a2")) == -163
    assert cm_classify(E11) is None


def test_hasse_cm_fixtures():
    assert hasse_cm(E121, 37) == "Unconditional"
    assert hasse_cm(E121, 13) == UNDETERMINED
    for p in (11, 13, 37, 101):
        assert hasse_cm(resolve("27a1"), p) == NOT_A_COUNTEREXAMPLE
    with pytest.raises(ValueError):
        hasse_cm(E11, 37)


def test_hasse_cm_serre_flag():
    # p = 3 mod 8 with (D/p) = -1 requires the flag
    D = -11
    p = None
    for q in (19, 43, 59, 67, 83, 107):
        from artifact.arith import legendre
        if q % 8 == 3 and legendre(D % q, q) == -1:
            p = q
            break
    assert p is not None
    assert hasse_cm(E121, p) == UNDETERMINED
    assert hasse_cm(E121, p, assume_serre_uniformity=True) == \
        "Conditional(SerreUniformity)"


def test_frey_mazur_fixtures():
    assert frey_mazur_classify(E37, 29) == CONDITIONAL_FM
    assert frey_mazur_classify(E11, 29) == CONDITIONAL_FM
    with pytest.raises(ValueError):
        frey_mazur_classify(E37, 13)


def test_analyze_has_rational_point_small_p():
    r = analyze(E11, 3)
    assert r.overall.kind == "HasRationalPoint"


def test_analyze_isogeny_shortcut():
    r = analyze(E11, 13)
    assert r.overall.kind == "HasRationalPoint"
    assert r.overall.detail["q"] == 5


def test_analyze_cm_counterexample():
    r = analyze(E121, 37)
    assert r.overall.kind == "HasseCounterexample"
    assert r.overall.detail["assumption"] == "None"
    assert all(v.status == NON_EMPTY for _, v in r.places_checked)


def test_analyze_everywhere_local_minimum():
    r = analyze(E37, 29)
    assert r.overall.kind == "EverywhereLocal"


def test_analyze_frey_mazur_flag():
    r = analyze(E37, 29, assume_frey_mazur=True)
    assert r.overall.kind == "HasseCounterexample"
    assert r.overall.detail["assumption"] == "FreyMazur"


def test_analyze_local_obstruction():
    r = analyze(W(0, 1, 0, 0, 2), 11)
    assert r.overall.kind == "LocalObstructionAt"
    assert r.overall.detail["ell"] == 3


def test_analyze_never_counterexample_without_nonempty_report():
    # p = 7: cusp rationality blocks the counterexample classification
    r = analyze(E121, 7)
    assert r.overall.kind != "HasseCounterexample"


def test_analyze_scan_note():
    r = analyze(E121, 37, scan_cap=100)
    assert r.scan_note is not None and "100" in r.scan_note
    checked = {pl.ell for pl, _ in r.places_checked[1:]}
    assert 11 in checked and 37 in checked


def _random_model(seed):
    rng = random.Random(seed)
    while True:
        try:
            return W(0, 0, 0, rng.randint(-60, 60), rng.randint(-60, 60))
        except SingularModelError:
            pass


def _clear_memos():
    for fn in (_good_trace, _proven_isogeny, primes_upto, genus):
        fn.cache_clear()


def test_analyze_same_cold_and_warm():
    models = [E11, E37, E121, _random_model(2024)]
    jobs = [(m, p, fm) for m in models for p in (29, 37) for fm in (False, True)]

    def run(m, p, fm):
        return analyze(m, p, scan_cap=150, assume_frey_mazur=fm)

    cold = []
    for job in jobs:
        _clear_memos()
        cold.append(run(*job))
    kinds = {r.overall.kind for r in cold}
    assert {"HasRationalPoint", "HasseCounterexample", "EverywhereLocal"} <= kinds
    for job in jobs:  # warm the memos with every job first
        report = run(*job)
        for _, v in report.places_checked:  # a caller may scribble on it
            v.trace.append("mutated")
            v.witness["mutated"] = True
    assert [run(*job) for job in jobs] == cold


def test_memos_hold_only_immutable_values():
    assert isinstance(_good_trace(E11, 3), int)
    assert _good_trace(E11, 11) is None
    ev = _proven_isogeny(E11, 5)
    assert isinstance(ev, IsogenyEvidence)
    assert isinstance(ev.kernel_polynomial, tuple)
    with pytest.raises(dataclasses.FrozenInstanceError):
        ev.certainty = EXCLUDED


@pytest.mark.parametrize("m, p", [(E11, 37), (E121, 29)])
def test_isogeny_certified_once_per_model(m, p, monkeypatch):
    # (5/37) = (11/29) = -1: the witness certifies the model's only
    # unexcluded degree, and the survey and rule (2) reuse it
    _clear_memos()
    isogeny_witness(m, p)
    misses = _proven_isogeny.cache_info().misses
    assert misses > 0
    frey_mazur_classify(m, p)
    isogeny_survey(m)
    isogeny_survey(m)
    assert _proven_isogeny.cache_info().misses == misses

    def no_count(C):
        raise AssertionError("point count repeated")

    monkeypatch.setattr(gr, "trace_of_frobenius", no_count)
    assert isogeny_survey(m) == isogeny_survey(m)
    isogeny_witness(m, 101)


def test_survey_h1():
    total, semi, frac = semistable_survey(1)
    assert (total, semi) == (99, 67)
    assert 0 < frac < 1


def test_survey_monotone():
    t1, s1, _ = semistable_survey(1)
    t2, s2, _ = semistable_survey(2)
    assert t2 > t1 and s2 > s1
    assert (t2, s2) == (51055, 31133)
