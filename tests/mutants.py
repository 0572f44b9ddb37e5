"""A standing mutation matrix: the tier-1 test that first kills each mutant.

Run from anywhere, outside pytest (the file is not collected)::

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones

Each mutant is one (file under ``src/ccspt``, old text, new text)
replacement, which must match exactly once.  For each, ``src/`` is copied
to a temporary directory and the replacement applied there; tier-1 then
runs against the copy (``PYTHONPATH`` on it) with ``-x``, so a killed
mutant stops at its first failing test and a survivor costs one tier-1 run.
The driver prints mutant -> first killing test, or "survived".

It exits 1 when a mutant survives that is not listed in ``KNOWN`` with the
ROADMAP item expected to kill it, or when a listed one is killed (its mark
goes), and 2 when a replacement does not match once or the copy is not the
package imported.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# a fixpoint that never ends kills its mutant rather than the run
TIMEOUT_S = 900

MUTANTS = [
    ("one-step weak closure", "semantics.py",
     "return [reach(tau_succ.__getitem__, s) for s in range(len(tau_succ))]",
     "return [tuple(sorted({s, *ts})) for s, ts in enumerate(tau_succ)]"),
    ("no pair-row stability op (1c, t3, tb3)", "bisim.py",
     "ops.append((_CONST, stable, None, c1c))", "pass"),
    ("no triple-row stability op (2e)", "bisim.py",
     "ops.append((_CONST, stable, None, c2e))", "pass"),
    ("rtb1 without its fused eps_X-then-t reading", "bisim.py",
     'elif "t_set" not in (k for k, _ in kinds):', "elif False:"),
    ("cbrb's 2d as a time-out path", "bisim.py",
     "(_CONCRETE, None) if concrete", "(_TPATH, idle[x]) if concrete"),
    ("idle masks ignore the first action's bit", "bisim.py",
     "for k in _bits(vis):", "for k in _bits(vis & ~1):"),
    ("reverse weak closure over one tau step", "bisim.py",
     "for s, ys in enumerate(self.weak):",
     "for s, ys in enumerate((s, *ts) for s, ts in enumerate(self.tau_succ)):"),
    ("unstable: the states with a tau step", "bisim.py",
     "self.unstable = ~_gather(rweak, notau)", "self.unstable = ~notau"),
    ("ThetaArena unwrap as the identity", "bisim.py",
     "inverse[self.wrap(x, s)] |= 1 << s", "inverse[s] |= 1 << s"),
    ("no encoded refusal in the front half", "bisim.py",
     "    _refuse_encoded(family, l1, l2)\n", ""),
    ("side states without their wrappers", "bisim.py",
     "members.add(w)", "pass"),
    ("Lts.idle ignoring its set", "semantics.py",
     "_idles(self._out[s].items(), allowed & self.sigma)",
     "_idles(self._out[s].items(), frozenset())"),
    ("in_fragment admitting Stable in Lbr", "modal.py",
     "    if isinstance(f, Top):\n        return True",
     "    if isinstance(f, (Top, Stable)):\n        return True"),
    ("R over tau steps only", "encode.py",
     "for s, ds in enumerate(map(chain, tau, tout)):", "for s, ds in enumerate(tau):"),
    ("tau and t targets settled under X", "encode.py",
     "slot_of[m & meets[d]]", "slot"),
    ("no comment token", "parser.py",
     "  | (?P<comment>\\#[^\\n]*)\n", ""),
    ("a keyword anywhere in a line", "parser.py",
     "head = self.pos == 0 or self.toks[self.pos - 1].line < tok.line", "head = True"),
]

# survivors known today, each with the ROADMAP item expected to kill it
KNOWN = {}


def run(mutant, workdir: Path) -> str:
    """The first test that fails on the mutant, or "survived"."""
    name, file, old, new = mutant
    src = workdir / "src"
    shutil.copytree(ROOT / "src", src,
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    path = src / "ccspt" / file
    text = path.read_text(encoding="utf-8")
    if text.count(old) != 1:
        sys.exit(f"mutant {name!r}: its old text matches {text.count(old)} times in {file}")
    path.write_text(text.replace(old, new), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(src))
    where = subprocess.run([sys.executable, "-c", "import ccspt; print(ccspt.__file__)"],
                           env=env, capture_output=True, text=True, check=True).stdout
    if not Path(where.strip()).is_relative_to(src):
        sys.exit(f"mutant {name!r}: ccspt imported from {where.strip()}, not the copy")
    try:
        done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-rfE",
                               "-p", "no:cacheprovider", "tests"],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return f"timed out after {TIMEOUT_S} s"
    if done.returncode == 0:
        return "survived"
    for line in done.stdout.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" - ")[0]
    return f"pytest exited {done.returncode}"


def main(names) -> int:
    chosen = [m for m in MUTANTS if not names or m[0] in names]
    unknown = set(names) - {m[0] for m in chosen}
    if unknown:
        sys.exit(f"no such mutant: {sorted(unknown)}")
    width = max(len(m[0]) for m in chosen)
    bad = []
    for mutant in chosen:
        with tempfile.TemporaryDirectory(prefix="ccspt-mutant-") as tmp:
            result = run(mutant, Path(tmp))
        name = mutant[0]
        print(f"{name:<{width}} -> {result}", flush=True)
        if (result == "survived") != (name in KNOWN):
            bad.append(name)
    for name in bad:
        if name in KNOWN:
            print(f"killed, so no longer a known survivor ({KNOWN[name]}): {name}")
        else:
            print(f"survived, and not a known survivor: {name}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
