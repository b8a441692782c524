"""Where the benchmark finds the program: the src/ tree of the checkout
that holds this directory.  An installed copy of wraplab elsewhere is never
used, so a checkout without sources fails instead of measuring something
else."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def use_src() -> None:
    init = ROOT / "src" / "wraplab" / "__init__.py"
    if not init.is_file():
        sys.exit(f"bench: no wraplab sources at {init}")
    sys.path.insert(0, str(init.parent.parent))
