"""Output checks: public-rule enumeration, report invariants, README
fixtures and golden outputs frozen from the parent commit.

A job whose output breaks an invariant, or differs from its frozen
golden output, counts as a failed operation.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction
from pathlib import Path

import sympy

from workloads import SCAN_CAP, genus, invariants, is_prime

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

#: The stable public enumeration of local-verdict rules (README, "Rule
#: identifiers").  Twist-e2/ and Twist-e6/ prefix an inner rule.
_RULES = re.compile(
    r"^(?:Twist-e[26]/)*(?:"
    r"Thm-small-p|Thm-real|Thm-multiplicative|Hensel|Thm-good\([1-4]\)"
    r"|Search-antisymplectic|Search-multiplicative-lift|Search-empty"
    r"|Thm-good-p\([124]\)|Cor-good-p-exception|OutOfScope-additive-p"
    r"|Thm-e[34]-(?:abelian|tame|wild-abelian|wild)|Thm-e8-24|Thm-e12"
    r"|Undetermined-defect)$")

STATUSES = {"NonEmpty", "Empty", "Undetermined", "OutOfScope"}
KINDS = {"HasRationalPoint", "LocalObstructionAt", "EverywhereLocal",
         "HasseCounterexample", "Undetermined"}
EXIT_CODE = {"NonEmpty": 0, "Empty": 1, "Undetermined": 2, "OutOfScope": 2}


def canonical(obj):
    """JSON-ready form of a library result, as the CLI prints it, without
    the human-readable ``trace`` lists."""
    if hasattr(obj, "__dataclass_fields__") and not isinstance(obj, type):
        if type(obj).__name__ in ("RealPlace", "FinitePrime"):
            return str(obj)
        return {k: canonical(getattr(obj, k))
                for k in obj.__dataclass_fields__ if k != "trace"}
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in obj.items() if k != "trace"}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    return str(obj)


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def job_key(job) -> str:
    kind, curve, p, last = job
    spec = curve if isinstance(curve, str) else "[%s]" % ",".join(map(str, curve))
    return f"{kind}|{spec}|{p}|{int(last)}"


def load_golden() -> dict:
    with GOLDEN_PATH.open() as fh:
        return json.load(fh)


def _check_verdict(v: dict, errors: list, where: str) -> None:
    if v.get("status") not in STATUSES:
        errors.append(f"{where}: status {v.get('status')!r}")
    if not _RULES.match(str(v.get("rule"))):
        errors.append(f"{where}: rule {v.get('rule')!r} not public")


def _required_places(ainvs, p: int) -> set:
    """R, p, every prime up to min(cap, 4g^2), and every prime ell >= 5
    with 0 < v_ell(Delta) < 12 (the model is minimal there, so the
    reduction is bad)."""
    disc = invariants(ainvs)[2]
    bound = min(SCAN_CAP, 4 * genus(p) ** 2)
    need = {"R", str(p)} | {str(q) for q in range(2, bound + 1) if is_prime(q)}
    for q, e in sympy.factorint(abs(disc)).items():
        if q >= 5 and e < 12:
            need.add(str(q))
    return need


def check_report(rep: dict, ainvs, p: int, fm: bool) -> list[str]:
    """Invariants of one analyze report (canonical form)."""
    errors: list[str] = []
    kind = rep["overall"]["kind"]
    detail = rep["overall"]["detail"]
    if kind not in KINDS:
        errors.append(f"unknown kind {kind}")
    places = rep["places_checked"]
    for pl, v in places:
        _check_verdict(v, errors, f"place {pl}")
    if not places:
        if kind != "HasRationalPoint":
            errors.append(f"{kind} without place verdicts")
        return errors
    names = [pl for pl, _ in places]
    missing = _required_places(ainvs, p) - set(names)
    if missing:
        errors.append(f"places missing: {sorted(missing, key=len)[:5]}")
    empties = [pl for pl, v in places if pl != "R" and v["status"] == "Empty"]
    if (kind == "LocalObstructionAt") != bool(empties):
        errors.append(f"{kind} but Empty places {empties}")
    if empties and detail.get("ell") != int(empties[0]):
        errors.append(f"obstruction at {detail.get('ell')}, first Empty {empties[0]}")
    gaps = [pl for pl, v in places if v["status"] in ("Undetermined", "OutOfScope")]
    if kind in ("EverywhereLocal", "HasseCounterexample") and (gaps or empties):
        errors.append(f"{kind} with non-soluble places")
    if kind == "Undetermined" and not gaps:
        errors.append("Undetermined without an undetermined place")
    if (kind == "HasseCounterexample" and detail.get("assumption") == "FreyMazur"
            and not (fm and p > 17)):
        errors.append("FreyMazur assumption used without being granted")
    return errors


def check_local(out: dict) -> list[str]:
    errors: list[str] = []
    _check_verdict(out, errors, "verdict")
    rule, status = out.get("rule", ""), out.get("status")
    inner = rule.split("/")[-1]
    if inner == "Search-empty" and status != "Empty":
        errors.append("Search-empty with status " + str(status))
    if inner.startswith(("Search-antisymplectic", "Search-multiplicative",
                         "Thm-good(", "Hensel", "Thm-real")) and status != "NonEmpty":
        errors.append(f"{rule} with status {status}")
    return errors


def check_cli(rc: int, stdout: str) -> tuple[list[str], dict | None]:
    """(errors, canonical verdict) of one ``artifact local`` invocation."""
    try:
        out = json.loads(stdout)
    except ValueError:
        return [f"exit {rc}, output is not JSON: {stdout[:80]!r}"], None
    errors = check_local(out)
    if EXIT_CODE.get(out.get("status")) != rc:
        errors.append(f"exit code {rc} for status {out.get('status')}")
    return errors, canonical(out)
