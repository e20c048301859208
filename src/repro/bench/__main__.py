"""``python -m repro.bench NAME... | --all [--quick] [--check] [--out DIR]``."""

from repro.bench.runner import main

if __name__ == "__main__":
    raise SystemExit(main())
