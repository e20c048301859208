#!/usr/bin/env python3
"""What the repository's own programs reach: the configuration knobs
they turn and the ``src/repro`` functions they call.

    python tools/census.py

Runs every program once, each with a ``sitecustomize`` hook:

* the end-to-end benchmark, ``benchmarks/e2e/run.py --seed 1 --seconds
  1.8`` (one full-scale segment per workload, each replayed in its own
  interpreter);
* ``python -m repro.bench --all --quick`` (the nine subsystem benches);
* ``python -m repro all --sensors 4000 --queries 100`` (Figures 2-7
  and the ablations);
* every ``python -m repro demo ...`` and ``python -m repro storage ...``
  line of README.md, in order (a ``--data-dir`` demo runs twice, so the
  second run warm-restarts);
* ``python -m repro shard`` at its defaults;
* every ``examples/*.py``;
* ``pytest benchmarks/ --benchmark-disable`` (the figure and core-op
  tests, and the e2e harness's own tests).

The hook is put first on ``PYTHONPATH``, so it reaches interpreters a
program spawns as well as workers it forks.  It wraps each ``*Config``
dataclass's ``__init__`` (``dataclasses.replace`` goes through it too)
and logs every field whose value differs from its default, and it
installs ``sys.setprofile`` / ``threading.setprofile`` to log each
``src/repro`` code object the first time it is called, one line at
once, so a forked worker that leaves through ``os._exit`` is counted.

The census prints one line per config field (``Class.field: values
seen``) and a summary of the functions.  A ``benchmarks/`` test that
fails on its numbers (an ``AssertionError``; Figure 3 is the known one)
is printed as a note.  It exits

* 2 when the log lacks a sentinel — ``worker_main`` from a forked worker,
  ``FrontDoor.execute`` from each workload's e2e interpreter — so an
  empty or partial log can never pass as "nothing reached";
* 1 when a field ``tests/test_config_surface.py`` credits to a program
  (a ``Seen`` row) was never turned, when a function no program called
  has no row in ``tests/test_reach_surface.py``'s ``KEPT`` table, or
  when a ``benchmarks/`` test fails with anything but an
  ``AssertionError`` (a deleted API must not hide behind a figure that
  is red on its numbers);
* 0 otherwise.

Takes about three minutes on a two-core host.
"""

from __future__ import annotations

import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
sys.path[:0] = [str(REPO), str(SRC)]

from tests.test_config_surface import SURFACE, Seen, all_fields, config_classes  # noqa: E402
from tests.test_reach_surface import KEPT, functions  # noqa: E402

# Installed as ``sitecustomize`` in every interpreter the census starts.
# ``REPRO_CENSUS`` names the log directory, ``REPRO_CENSUS_SRC`` the
# source root whose code objects are logged, ``REPRO_KNOB_MODULES`` the
# modules whose ``*Config`` dataclasses get the constructor hook.
HOOK = '''
import dataclasses
import importlib.machinery
import json
import os
import sys
import threading

_DIR = os.environ["REPRO_CENSUS"]
_SRC = os.environ["REPRO_CENSUS_SRC"]
_MODULES = set(os.environ["REPRO_KNOB_MODULES"].split(","))
_logged = set()


def _default(field):
    if field.default is not dataclasses.MISSING:
        return field.default
    if field.default_factory is not dataclasses.MISSING:
        return field.default_factory()
    return dataclasses.MISSING  # a required field: every value is a setting


def _log(config):
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        if value == _default(field):
            continue
        shown = repr(value)
        if len(shown) > 60:
            shown = shown[:57] + "..."
        row = (type(config).__name__, field.name, shown.replace("\\t", " "))
        if row not in _logged:
            _logged.add(row)
            with open(os.path.join(_DIR, "knobs.tsv"), "a") as log:
                log.write("\\t".join(row) + "\\n")


def _hook(cls):
    init = cls.__init__

    def __init__(self, *args, **kwargs):
        init(self, *args, **kwargs)
        _log(self)

    cls.__init__ = __init__


class _Finder:
    @staticmethod
    def find_spec(name, path=None, target=None):
        if name not in _MODULES:
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module

        def exec_and_hook(module):
            exec_module(module)
            for obj in list(vars(module).values()):
                if (
                    isinstance(obj, type)
                    and dataclasses.is_dataclass(obj)
                    and obj.__module__ == name
                    and obj.__name__.endswith("Config")
                ):
                    _hook(obj)

        spec.loader.exec_module = exec_and_hook
        return spec


sys.meta_path.insert(0, _Finder())

# Code objects seen, held so an id is never reused; one log per process,
# opened by its first line with the interpreter's argv.
_called = {}
_pid = None


def _reached(code):
    global _pid
    pid = os.getpid()
    with open(os.path.join(_DIR, f"reach-{pid}.tsv"), "a") as log:
        if pid != _pid:
            _pid = pid
            log.write("#\\t" + json.dumps(sys.argv) + "\\n")
        log.write(
            f"{code.co_filename[len(_SRC):]}\\t{code.co_firstlineno}\\t{code.co_qualname}\\n"
        )


def _profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if id(code) not in _called and code.co_filename.startswith(_SRC):
            _called[id(code)] = code
            _reached(code)


sys.setprofile(_profile)
threading.setprofile(_profile)
'''

# Called by every program that reaches the code it stands for: the forked
# worker loop, and each e2e workload's serving path.
WORKER_SENTINEL = "repro/parallel/worker.py:worker_main"
E2E_SENTINEL = "repro/frontdoor/frontdoor.py:FrontDoor.execute"
README_LINE = re.compile(r"^python -m repro ((?:demo|storage)\b[^#]*)")

# A pytest plugin for the ``benchmarks/`` driver: one line per failed
# test (or module that fails to collect) with what it failed with and
# whether that is an ``AssertionError``.
PYTEST_PLUGIN = '''
import os

import pytest


def _log(nodeid, failed_with, on_numbers):
    with open(os.path.join(os.environ["REPRO_CENSUS"], "failures.tsv"), "a") as log:
        log.write(f"{nodeid}\\t{failed_with}\\t{int(on_numbers)}\\n")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    if outcome.get_result().failed and call.excinfo is not None:
        excinfo = call.excinfo
        _log(item.nodeid, excinfo.typename, excinfo.errisinstance(AssertionError))


def pytest_collectreport(report):
    if report.failed:
        _log(report.nodeid, "a collection error", False)
'''
PYTEST_LABEL = "pytest benchmarks/"


def programs(out: Path) -> list[tuple[str, list[str]]]:
    py = sys.executable
    e2e = str(REPO / "benchmarks/e2e/run.py")
    documented = []
    for line in (REPO / "README.md").read_text().splitlines():
        match = README_LINE.match(line)
        if match:
            args = shlex.split(match.group(1))
            label = f"repro {' '.join(args)}"
            documented += [(label, [py, "-m", "repro", *args])] * (
                2 if "--data-dir" in args else 1
            )
    return [
        ("e2e --seconds 1.8", [py, e2e, "--seed", "1", "--seconds", "1.8"]),
        (
            "repro.bench --all --quick",
            [py, "-m", "repro.bench", "--all", "--quick", "--out", str(out)],
        ),
        ("repro all", [py, "-m", "repro", "all", "--sensors", "4000", "--queries", "100"]),
        *documented,
        ("repro shard", [py, "-m", "repro", "shard"]),
        *(
            (f"examples/{example.name}", [py, str(example)])
            for example in sorted((REPO / "examples").glob("*.py"))
        ),
        (
            PYTEST_LABEL,
            [
                py, "-m", "pytest", "-q", "-p", "census_pytest", "-p", "no:cacheprovider",
                "--continue-on-collection-errors", "--rootdir", str(REPO),
                str(REPO / "benchmarks"), "--benchmark-disable",
            ],
        ),
    ]


def run_census(
    modules: dict[str, list[str]],
) -> tuple[dict[str, set[str]], list[tuple], list[tuple[str, str, bool]]]:
    """Run every program under the hook.  Returns ``Class.field`` -> the
    non-default values seen, one ``(argv, functions called)`` per
    process, and the ``benchmarks/`` tests that failed: ``(test, what
    it failed with, whether that is an AssertionError)``."""
    with tempfile.TemporaryDirectory(prefix="census-") as tmp:
        tmp_path = Path(tmp)
        (tmp_path / "sitecustomize.py").write_text(HOOK)
        (tmp_path / "census_pytest.py").write_text(PYTEST_PLUGIN)
        logs = tmp_path / "logs"
        logs.mkdir()
        (logs / "knobs.tsv").touch()
        (logs / "failures.tsv").touch()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(tmp_path), str(SRC), *filter(None, [env.get("PYTHONPATH")])]
        )
        env["REPRO_CENSUS"] = str(logs)
        env["REPRO_CENSUS_SRC"] = str(SRC) + os.sep
        env["REPRO_KNOB_MODULES"] = ",".join(modules)
        work = tmp_path / "work"
        work.mkdir()
        for label, argv in programs(tmp_path / "bench-out"):
            print(f"-- {label}", file=sys.stderr, flush=True)
            done = subprocess.run(argv, cwd=work, env=env, stdout=subprocess.DEVNULL)
            # One 1.8 s segment is too few requests for the e2e p99 shape
            # check; its sentinels, not its exit status, show it ran.  A
            # failed benchmarks/ test (or module that fails to collect) is
            # judged by what it failed with, below; pytest's other non-zero
            # codes (interrupted, internal or usage error, nothing
            # collected) stop the census.
            if label == PYTEST_LABEL and done.returncode == 1:
                continue
            if not label.startswith("e2e"):
                done.check_returncode()
        seen: dict[str, set[str]] = {}
        for line in (logs / "knobs.tsv").read_text().splitlines():
            cls, field, value = line.split("\t")
            seen.setdefault(f"{cls}.{field}", set()).add(value)
        called = []
        for log in logs.glob("reach-*.tsv"):
            header, *rows = log.read_text().splitlines()
            names = {f"{file}:{qual}" for file, _, qual in (row.split("\t") for row in rows)}
            called.append((json.loads(header[2:]), names))
        failures = [
            (test, exc, flag == "1")
            for test, exc, flag in (
                line.split("\t") for line in (logs / "failures.tsv").read_text().splitlines()
            )
        ]
    return seen, called, failures


def missing_sentinels(called: list[tuple]) -> list[str]:
    """The sentinels absent from the log: an empty or partial log must
    not read as "nothing reached"."""
    missing = []
    if not any(WORKER_SENTINEL in names for _argv, names in called):
        missing.append(f"{WORKER_SENTINEL} (a forked worker)")
    for workload in json.loads((REPO / "BENCHMARK.json").read_text())["workloads"]:
        name = workload["name"]
        if not any(
            "--child" in argv and argv[argv.index("--workload") + 1] == name
            and E2E_SENTINEL in names
            for argv, names in called
        ):
            missing.append(f"{E2E_SENTINEL} (the e2e {name} interpreter)")
    return missing


def main() -> int:
    seen, called, failures = run_census(config_classes())
    for key in all_fields():
        values = sorted(seen.get(key, ()))
        shown = ", ".join(values[:6])
        if len(values) > 6:
            shown += f", ... (+{len(values) - 6} more)"
        print(f"{key}: {shown or '-'}")
    missing = missing_sentinels(called)
    for sentinel in missing:
        print(f"NO SENTINEL: {sentinel} is not in the log", file=sys.stderr)
    if missing:
        return 2

    unseen = sorted(
        key for key, row in SURFACE.items() if isinstance(row, Seen) and key not in seen
    )
    for key in unseen:
        print(
            f"NOT TURNED: {key} is credited to {SURFACE[key].caller}, "
            "but no program set it to a non-default value",
            file=sys.stderr,
        )

    lines = functions()
    reached = set().union(*(names for _argv, names in called)) & set(lines)
    unreached = sorted(set(lines) - reached)
    kept = [key for key in unreached if key in KEPT]
    unlisted = [key for key in unreached if key not in KEPT]

    def size(keys) -> str:
        keys = list(keys)
        return f"{len(keys)} functions, {sum(lines[key] for key in keys)} lines"

    print(f"\nfunctions in src/repro: {size(lines)}")
    print(f"reached by a program: {size(reached)}")
    for cls in sorted({KEPT[key][:3] for key in kept}):
        print(f"kept {cls}: {size(key for key in kept if KEPT[key][:3] == cls)}")
    for key in sorted(set(KEPT) & reached):
        print(f"note: {key} has a KEPT row but a program reached it")
    for key in unlisted:
        print(f"UNREACHED: {key} ({lines[key]} lines) has no KEPT row", file=sys.stderr)
    crashed = [(test, exc) for test, exc, on_numbers in failures if not on_numbers]
    for test, exc, on_numbers in failures:
        if on_numbers:
            print(f"note: {test} fails on its numbers ({exc})")
    for test, exc in crashed:
        print(f"CRASHED: {test} fails with {exc}, not on its numbers", file=sys.stderr)
    return 1 if unseen or unlisted or crashed else 0


if __name__ == "__main__":
    raise SystemExit(main())
