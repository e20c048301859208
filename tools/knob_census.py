#!/usr/bin/env python3
"""Which configuration knobs the repository's own programs turn.

    python tools/knob_census.py

Reruns five programs at quick scale with a constructor hook on every
``*Config`` dataclass under ``src/repro``:

* the end-to-end benchmark, ``benchmarks/e2e/run.py --quick --seed 1``
  (all six workloads, each replayed in its own interpreter);
* ``python -m repro.bench --all --quick`` (the nine subsystem benches);
* ``python -m repro all --sensors 4000 --queries 100`` (Figures 2-7
  and the ablations);
* ``python -m repro demo``;
* every ``examples/*.py``.

The hook is a ``sitecustomize`` module put first on ``PYTHONPATH``, so
it reaches interpreters a program spawns as well as workers it forks; it
wraps each config class's ``__init__`` (``dataclasses.replace`` goes
through it too) and logs every field whose value differs from its
default.  The census prints one line per field, ``Class.field: values
seen``, and exits 1 when a field that ``tests/test_config_surface.py``
credits to a program was never seen at a non-default value: the surface
table would then name a caller that no longer turns the knob.  Takes
about 40 s on a two-core host.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
sys.path[:0] = [str(REPO), str(SRC)]

from tests.test_config_surface import SURFACE, Seen, all_fields, config_classes  # noqa: E402

# Installed as ``sitecustomize`` in every interpreter the census starts.
# ``REPRO_KNOB_CENSUS`` names the log file, ``REPRO_KNOB_MODULES`` the
# modules whose ``*Config`` dataclasses get the hook.
HOOK = '''
import dataclasses
import importlib.machinery
import os
import sys

_LOG = os.environ["REPRO_KNOB_CENSUS"]
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
            with open(_LOG, "a") as log:
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
'''


def programs(out: Path) -> list[tuple[str, list[str]]]:
    py = sys.executable
    e2e = str(REPO / "benchmarks/e2e/run.py")
    return [
        ("e2e --quick", [py, e2e, "--quick", "--seed", "1"]),
        (
            "repro.bench --all --quick",
            [py, "-m", "repro.bench", "--all", "--quick", "--out", str(out)],
        ),
        ("repro all", [py, "-m", "repro", "all", "--sensors", "4000", "--queries", "100"]),
        ("repro demo", [py, "-m", "repro", "demo"]),
        *(
            (f"examples/{example.name}", [py, str(example)])
            for example in sorted((REPO / "examples").glob("*.py"))
        ),
    ]


def run_census(modules: dict[str, list[str]]) -> dict[str, set[str]]:
    """Run every program under the hook; ``Class.field`` -> the
    non-default values seen."""
    with tempfile.TemporaryDirectory(prefix="knob-census-") as tmp:
        tmp_path = Path(tmp)
        (tmp_path / "sitecustomize.py").write_text(HOOK)
        log = tmp_path / "census.tsv"
        log.touch()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(tmp_path), str(SRC), *filter(None, [env.get("PYTHONPATH")])]
        )
        env["REPRO_KNOB_CENSUS"] = str(log)
        env["REPRO_KNOB_MODULES"] = ",".join(modules)
        work = tmp_path / "work"
        work.mkdir()
        for label, argv in programs(tmp_path / "bench-out"):
            print(f"-- {label}", file=sys.stderr, flush=True)
            subprocess.run(
                argv, cwd=work, env=env, check=True, stdout=subprocess.DEVNULL
            )
        seen: dict[str, set[str]] = {}
        for line in log.read_text().splitlines():
            cls, field, value = line.split("\t")
            seen.setdefault(f"{cls}.{field}", set()).add(value)
    return seen


def main() -> int:
    seen = run_census(config_classes())
    for key in all_fields():
        values = sorted(seen.get(key, ()))
        shown = ", ".join(values[:6])
        if len(values) > 6:
            shown += f", ... (+{len(values) - 6} more)"
        print(f"{key}: {shown or '-'}")
    unseen = sorted(
        key for key, row in SURFACE.items() if isinstance(row, Seen) and key not in seen
    )
    for key in unseen:
        print(
            f"NOT TURNED: {key} is credited to {SURFACE[key].caller}, "
            "but no program set it to a non-default value",
            file=sys.stderr,
        )
    return 1 if unseen else 0


if __name__ == "__main__":
    raise SystemExit(main())
