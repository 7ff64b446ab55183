"""``rng-discipline``: the draw-order conventions behind bit-identity.

The same-seed bit-identity contract (see :mod:`repro.sim`) rests on
three RNG conventions that used to live only in review memory:

* **CDF bisection is right-sided.** Every ``searchsorted`` over a pinned
  CDF must pass ``side='right'`` — the boundary draw ``u == cdf[k]``
  otherwise selects a zero-rate source (the pre-PR-1 sampler bug, fixed
  once per engine and regression-pinned since). ``bisect_left`` /
  ``insort_left`` on a CDF is the same bug in stdlib clothing.
* **Engine hot loops draw in blocks.** Inside ``sim/`` modules, scalar
  ``rng.random()`` draws are sanctioned only as the probe of a
  right-sided CDF bisection (the pinned-CDF source draw); scalar
  ``rng.poisson(...)`` / ``rng.exponential(...)`` / ``rng.normal(...)``
  (no ``size=``) bypass the blocked-draw helpers that make draw order
  reproducible and cheap. A pinned stream that must keep a scalar draw
  (the PS engine's re-planned arrival gap) carries a
  ``# replint: disable=rng-discipline`` with the reason.
* **No nondeterminism sources in engine code.** Iterating a ``set``
  (unordered), ``time.time()`` / ``datetime.now()`` (wall clock) and
  no-argument ``popitem()`` have no place in a trajectory that must be a
  pure function of the seed.

The CDF check applies everywhere; the blocked-draw and nondeterminism
checks apply to engine/kernel code only (any analyzed file under a
``sim`` directory).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Finding, Rule, SourceFile, register_rule

#: Scalar-draw methods that have blocked (``size=``) forms.
_BLOCKABLE_DRAWS = ("poisson", "exponential", "normal", "standard_exponential")


def _call_name(func: ast.AST) -> str:
    """The trailing identifier of a call target (``np.searchsorted`` ->
    ``searchsorted``), or ``""`` for computed targets."""
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def _mentions_cdf(node: ast.AST) -> bool:
    return "cdf" in ast.unparse(node).lower()


def _is_rng_receiver(func: ast.AST) -> bool:
    """Whether a call target looks like a Generator method (``rng.x``)."""
    if not isinstance(func, ast.Attribute):
        return False
    return "rng" in ast.unparse(func.value).lower()


def _side_is_right(call: ast.Call) -> bool:
    for kw in call.keywords:
        if kw.arg == "side":
            return isinstance(kw.value, ast.Constant) and kw.value.value == "right"
    return False


def _in_sim_scope(src: SourceFile) -> bool:
    return "sim" in src.path.parts or ".sim." in src.module


class RngDisciplineRule(Rule):
    name = "rng-discipline"
    description = (
        "CDF bisections must be side='right'; sim/ hot loops must use "
        "blocked draws and avoid nondeterminism sources (set iteration, "
        "wall clock, bare popitem)"
    )

    def check_file(self, src: SourceFile) -> Iterator[Finding]:
        sim_scope = _in_sim_scope(src)
        sanctioned: set[int] = set()  # ids of calls nested in a pinned draw
        for node in ast.walk(src.tree):
            if isinstance(node, ast.Call):
                called = _call_name(node.func)
                if called == "searchsorted" and _side_is_right(node):
                    for sub in ast.walk(node):
                        if isinstance(sub, ast.Call) and sub is not node:
                            sanctioned.add(id(sub))
        for node in ast.walk(src.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(src, node, sim_scope, sanctioned)
            elif isinstance(node, (ast.For, ast.comprehension)):
                it = node.iter
                if sim_scope and _is_set_expr(it):
                    yield src.finding(
                        self.name,
                        it,
                        "iterating a set in engine code is order-"
                        "nondeterministic — sort it or use a list/dict",
                    )

    def _check_call(
        self,
        src: SourceFile,
        node: ast.Call,
        sim_scope: bool,
        sanctioned: set[int],
    ) -> Iterator[Finding]:
        called = _call_name(node.func)
        args_mention_cdf = any(_mentions_cdf(a) for a in node.args[:1])
        if called == "searchsorted" and args_mention_cdf:
            if not _side_is_right(node):
                yield src.finding(
                    self.name,
                    node,
                    "searchsorted over a CDF without side='right' — the "
                    "boundary draw u == cdf[k] would select a zero-rate "
                    "entry (use the pinned-CDF convention)",
                )
        elif called in ("bisect_left", "insort_left") and any(
            _mentions_cdf(a) for a in node.args
        ):
            yield src.finding(
                self.name,
                node,
                f"{called} over a CDF is a left-sided bisection — the "
                "repo's CDF draws are side='right' by contract",
            )
        if not sim_scope:
            return
        if _is_rng_receiver(node.func):
            if called == "random" and not node.args and not node.keywords:
                if id(node) not in sanctioned:
                    yield src.finding(
                        self.name,
                        node,
                        "scalar rng.random() outside a side='right' CDF "
                        "bisection — engine hot loops draw in blocks "
                        "(see the blocked-draw helpers in the kernels)",
                    )
            elif called in _BLOCKABLE_DRAWS:
                has_size = any(kw.arg == "size" for kw in node.keywords)
                if not has_size:
                    yield src.finding(
                        self.name,
                        node,
                        f"scalar rng.{called}(...) without size= in engine "
                        "code bypasses the blocked-draw helpers — draw a "
                        "block and index it",
                    )
        if called == "time" and isinstance(node.func, ast.Attribute):
            base = ast.unparse(node.func.value)
            if base == "time":
                yield src.finding(
                    self.name,
                    node,
                    "time.time() in engine code: trajectories must be a "
                    "pure function of the seed (wall clock forbidden)",
                )
        elif called == "now" and isinstance(node.func, ast.Attribute):
            if ast.unparse(node.func.value).endswith("datetime"):
                yield src.finding(
                    self.name,
                    node,
                    "datetime.now() in engine code: trajectories must be "
                    "a pure function of the seed (wall clock forbidden)",
                )
        elif called == "popitem" and not node.args and not node.keywords:
            yield src.finding(
                self.name,
                node,
                "bare popitem() in engine code pops an insertion-order-"
                "dependent item — make the eviction order explicit "
                "(OrderedDict.popitem(last=...) is fine)",
            )


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        return _call_name(node.func) in ("set", "frozenset") and not isinstance(
            node.func, ast.Attribute
        )
    return False


register_rule(RngDisciplineRule())
