"""Mutation testing of one module with stdlib ``ast`` mutants.

Each mutant is one edit of the module's syntax tree:

- ``if``: the test negated (``if x:`` becomes ``if not x:``; an
  ``elif`` is an ``if`` too);
- comparison: one operator swapped for its boundary twin or its
  negation (``<``/``<=``, ``>``/``>=``, ``==``/``!=``, ``in``/``not in``,
  ``is``/``is not``);
- boolean operator: ``and`` and ``or`` swapped;
- boolean return: ``return True`` and ``return False`` swapped;
- ``raise``: the statement dropped.

The mutated module is written into a temporary copy of ``src/`` and
the named test paths run against that copy (``PYTHONPATH`` points at
it, and no bytecode is written anywhere), so the checkout is never
touched.  A mutant is *killed* when pytest fails and *survives* when
it passes.  Before any mutant, the module rewritten by ``ast.unparse``
with no edit must pass, or the run stops.

Run from the repository root; this is not part of the test suite::

    python benchmarks/mutation.py src/repro/hardening/guard.py \\
        tests/hardening tests/services tests/cluster

``--list`` prints the mutants without running them.  A survivor is
either an equivalent mutant (no input can tell it apart) or a missing
test.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Optional

ROOT = Path(__file__).resolve().parent.parent

#: Each comparison operator and the one a mutant puts in its place.
COMPARE_SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn,
    ast.NotIn: ast.In, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
}


class Mutant(NamedTuple):
    index: int
    line: int
    kind: str
    before: str
    after: str


class _Mutator(ast.NodeTransformer):
    """Numbers every mutation site in traversal order, and applies the
    one numbered ``target`` (none when ``target`` is ``None``)."""

    def __init__(self, target: Optional[int] = None) -> None:
        self.target = target
        self.sites: list[Mutant] = []

    def _site(self, node: ast.AST, kind: str, before: ast.AST,
              after: ast.AST) -> bool:
        index = len(self.sites)
        self.sites.append(Mutant(
            index, node.lineno, kind, ast.unparse(before), ast.unparse(after)
        ))
        return index == self.target

    def visit_If(self, node: ast.If) -> ast.AST:
        negated = ast.UnaryOp(op=ast.Not(), operand=node.test)
        if self._site(node, "negate-if", node.test, negated):
            node.test = ast.copy_location(negated, node.test)
        return self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> ast.AST:
        for position, op in enumerate(list(node.ops)):
            ops = list(node.ops)
            ops[position] = COMPARE_SWAPS[type(op)]()
            swapped = ast.Compare(
                left=node.left, ops=ops, comparators=node.comparators
            )
            if self._site(node, "swap-compare", node, swapped):
                node.ops = ops
        return self.generic_visit(node)

    def visit_BoolOp(self, node: ast.BoolOp) -> ast.AST:
        op = ast.Or() if isinstance(node.op, ast.And) else ast.And()
        swapped = ast.BoolOp(op=op, values=node.values)
        if self._site(node, "swap-boolop", node, swapped):
            node.op = op
        return self.generic_visit(node)

    def visit_Return(self, node: ast.Return) -> ast.AST:
        value = node.value
        if isinstance(value, ast.Constant) and isinstance(value.value, bool):
            flipped = ast.Return(value=ast.Constant(not value.value))
            if self._site(node, "flip-return", node, flipped):
                node.value = ast.copy_location(flipped.value, value)
        return self.generic_visit(node)

    def visit_Raise(self, node: ast.Raise) -> ast.AST:
        if self._site(node, "drop-raise", node, ast.Pass()):
            return ast.copy_location(ast.Pass(), node)
        return self.generic_visit(node)


def _describe(site: Mutant) -> str:
    before, after = (
        text if len(text) <= 60 else text[:57] + "..."
        for text in (site.before, site.after)
    )
    return f":{site.line:<5} {site.kind:13} {before}  ->  {after}"


def mutants(source: str) -> list[Mutant]:
    mutator = _Mutator()
    mutator.visit(ast.parse(source))
    return mutator.sites


def mutated_source(source: str, index: Optional[int]) -> str:
    """The module with mutant ``index`` applied (``None``: no edit)."""
    tree = _Mutator(index).visit(ast.parse(source))
    return ast.unparse(ast.fix_missing_locations(tree)) + "\n"


def run_tests(src_copy: Path, tests: list[str], timeout_s: float) -> str:
    """``passed``, ``failed`` or ``timeout`` for one pytest run."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src_copy)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    command = [
        sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
        *tests,
    ]
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True,
            timeout=timeout_s,
        )
    except subprocess.TimeoutExpired:
        return "timeout"
    return "passed" if done.returncode == 0 else "failed"


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("module", help="a file under src/, e.g. "
                        "src/repro/hardening/guard.py")
    parser.add_argument("tests", nargs="*", default=["tests"],
                        help="test paths to run against each mutant")
    parser.add_argument("--list", action="store_true",
                        help="print the mutants and exit")
    args = parser.parse_args(argv)

    module = (ROOT / args.module).resolve()
    relative = module.relative_to(ROOT / "src")
    source = module.read_text(encoding="utf-8")
    sites = mutants(source)
    if args.list:
        for site in sites:
            print(f"{site.index:4} {_describe(site)}")
        return 0

    with tempfile.TemporaryDirectory(prefix="mutation-") as scratch:
        src_copy = Path(scratch) / "src"
        shutil.copytree(
            ROOT / "src", src_copy,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        target = src_copy / relative
        target.write_text(mutated_source(source, None), encoding="utf-8")
        started = time.perf_counter()
        clean = run_tests(src_copy, args.tests, timeout_s=3600.0)
        clean_s = time.perf_counter() - started
        if clean != "passed":
            print(f"the unmutated module does not pass ({clean}); "
                  "no mutant was run", file=sys.stderr)
            return 2
        print(f"{len(sites)} mutants of {args.module}; clean run "
              f"{clean_s:.0f} s against {' '.join(args.tests)}")
        survivors = []
        for site in sites:
            target.write_text(
                mutated_source(source, site.index), encoding="utf-8"
            )
            verdict = run_tests(
                src_copy, args.tests, timeout_s=max(60.0, 5 * clean_s)
            )
            if verdict == "passed":
                survivors.append(site)
            label = "SURVIVED" if verdict == "passed" else verdict
            print(f"{site.index:4} {label:8} {_describe(site)}", flush=True)
    print(f"killed {len(sites) - len(survivors)} of {len(sites)}; "
          f"survivors: {', '.join(f':{s.line}' for s in survivors) or 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
