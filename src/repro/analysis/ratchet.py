"""Blocking mypy ratchet: per-module error counts may never increase.

``python -m repro.analysis.ratchet`` runs mypy over ``src/repro`` (the
config lives in the repository's ``mypy.ini``), aggregates errors per
top-level subpackage (``repro.distributed``, ``repro.learning``, ...), and
compares against the committed baseline ``analysis/mypy_ratchet.json``:

* a module whose count **exceeds** its baseline budget fails the check
  (exit 1) — new type errors cannot land;
* a module with no baseline entry has budget **zero** — new subpackages
  start clean;
* counts *below* budget only print a hint; tightening is an explicit,
  reviewed act: ``python -m repro.analysis.ratchet --update`` regenerates
  the baseline with the measured counts and must be committed;
* a run that measured nothing — mypy exits 1 ("errors found") yet reports
  no error line, as ``python -m mypy`` does when mypy is not installed —
  exits with :data:`EXIT_UNMEASURED`, never with a pass.

``--from-report FILE`` feeds a canned ``mypy`` stdout instead of invoking
mypy — the parsing/compare logic stays testable in environments without
the toolchain (this also keeps the analyzer itself zero-dependency).
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

DEFAULT_BASELINE = "analysis/mypy_ratchet.json"
DEFAULT_TARGET = "src/repro"

#: Exit status of a run that took no measurement; distinct from 1 (a
#: budget was exceeded) and 2 (usage error).
EXIT_UNMEASURED = 3

#: ``src/repro/distributed/server.py:12: error: ...`` (column optional).
_ERROR_LINE_RE = re.compile(
    r"^(?P<path>[^:\n]+\.py):\d+(?::\d+)?:\s*error:"
)


def module_for_path(path: str) -> str:
    """Aggregation key for one reported file: its top-level subpackage.

    ``src/repro/distributed/server.py`` -> ``repro.distributed``;
    files directly under ``repro/`` fold into the ``repro`` bucket.
    """
    parts = Path(path.replace("\\", "/")).parts
    if "repro" in parts:
        idx = parts.index("repro")
        tail = parts[idx:-1] if len(parts) - idx > 1 else parts[idx:]
        return ".".join(tail) if tail else "repro"
    return Path(path).stem


def parse_report(text: str) -> Dict[str, int]:
    """Per-module error counts from raw mypy stdout."""
    counts: Dict[str, int] = {}
    for line in text.splitlines():
        match = _ERROR_LINE_RE.match(line.strip())
        if match is None:
            continue
        module = module_for_path(match.group("path"))
        counts[module] = counts.get(module, 0) + 1
    return counts


def run_mypy(target: str) -> Tuple[str, int]:
    """Invoke mypy on ``target``; returns (stdout, returncode).

    Exit code 2 from mypy means a usage/crash error (distinct from 1 =
    "errors found"); both stdout and stderr are surfaced on failure.
    """
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "mypy", "--no-error-summary", target],
            capture_output=True,
            text=True,
            check=False,
        )
    except FileNotFoundError as exc:  # pragma: no cover - no interpreter?
        raise SystemExit(f"could not invoke mypy: {exc}") from exc
    if proc.returncode not in (0, 1):
        raise SystemExit(
            f"mypy crashed (exit {proc.returncode}):\n{proc.stdout}{proc.stderr}"
        )
    return proc.stdout, proc.returncode


def load_baseline(path: Path) -> Dict[str, int]:
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise SystemExit(
            f"no ratchet baseline at {path}; generate one with --update"
        ) from None
    modules = data.get("modules")
    if not isinstance(modules, dict):
        raise SystemExit(f"malformed baseline {path}: no 'modules' mapping")
    return {str(k): int(v) for k, v in modules.items()}


def write_baseline(path: Path, counts: Dict[str, int], target: str) -> None:
    payload = {
        "note": (
            "mypy ratchet baseline: per-module error budgets that "
            "`python -m repro.analysis.ratchet` asserts never increase. "
            "Regenerate (tighten) with --update after fixing errors."
        ),
        "command": "python -m repro.analysis.ratchet --update",
        "target": target,
        "modules": dict(sorted(counts.items())),
        "total": sum(counts.values()),
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def compare(
    current: Dict[str, int], baseline: Dict[str, int]
) -> Tuple[List[str], List[str]]:
    """Returns (regressions, improvements) as printable lines."""
    regressions: List[str] = []
    improvements: List[str] = []
    for module in sorted(set(current) | set(baseline)):
        now = current.get(module, 0)
        budget = baseline.get(module, 0)
        if now > budget:
            regressions.append(
                f"{module}: {now} error(s) > baseline budget {budget}"
            )
        elif 0 < now < budget:
            # Zero-count modules are summarized by the caller; itemizing
            # every clean bucket buries the signal.
            improvements.append(
                f"{module}: {now} error(s) < budget {budget} — consider "
                "tightening with --update"
            )
    return regressions, improvements


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.ratchet",
        description="Blocking mypy ratchet (per-module error budgets).",
    )
    parser.add_argument(
        "--baseline",
        default=DEFAULT_BASELINE,
        help=f"baseline JSON path (default: {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--target",
        default=DEFAULT_TARGET,
        help=f"what to typecheck (default: {DEFAULT_TARGET})",
    )
    parser.add_argument(
        "--from-report",
        metavar="FILE",
        help="parse this saved mypy stdout instead of running mypy",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="regenerate the baseline from the measured counts (commit it)",
    )
    args = parser.parse_args(argv)

    if args.from_report:
        report = Path(args.from_report).read_text(encoding="utf-8")
        current = parse_report(report)
    else:
        report, returncode = run_mypy(args.target)
        current = parse_report(report)
        if returncode == 1 and not current:
            print(
                "mypy ratchet: UNMEASURED — mypy exited 1 without reporting "
                "an error, so no count was taken (is mypy installed? try "
                "`python -m mypy --version`)",
                file=sys.stderr,
            )
            return EXIT_UNMEASURED

    baseline_path = Path(args.baseline)
    if args.update:
        write_baseline(baseline_path, current, args.target)
        print(
            f"wrote {baseline_path}: {sum(current.values())} error(s) across "
            f"{len(current)} module(s)"
        )
        return 0

    baseline = load_baseline(baseline_path)
    regressions, improvements = compare(current, baseline)
    total = sum(current.values())
    budget_total = sum(baseline.values())
    print(
        f"mypy ratchet: {total} error(s) measured, "
        f"{budget_total} budgeted across {len(baseline)} module(s)"
    )
    for line in improvements:
        print(f"  note: {line}")
    if regressions:
        for line in regressions:
            print(f"  FAIL: {line}")
        print(
            "type-error count increased; fix the new errors (or, for a "
            "deliberate accepted debt, regenerate the baseline with "
            "--update and justify it in review)"
        )
        return 1
    print("ok: no module exceeds its budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
