"""RA001 — determinism of worker-reachable code.

The parallel/resilience determinism contract (DESIGN.md §6–§7) promises
bit-identical frequency sets and ``frequency.*`` counters no matter how
chunks are scheduled, retried, or degraded.  That only holds if the code
that executes *inside workers* is a pure function of its inputs plus
seeded state.  This rule walks every module transitively imported from
the worker entry points — :mod:`repro.parallel.worker` and
:mod:`repro.resilience.faults` — and flags the classic entropy leaks:

* wall-clock reads: ``time.time(...)``, ``datetime.now/utcnow/today``
  (monotonic ``time.perf_counter`` / ``time.sleep`` stay legal);
* OS randomness: ``os.urandom(...)``, ``uuid.uuid4()``;
* unseeded RNGs: module-level ``random.random()`` & friends,
  ``random.Random()`` / ``numpy.random.default_rng()`` with no seed
  argument (seeded construction is the sanctioned pattern — see
  :class:`repro.resilience.faults.FaultPlan`);
* set-order dependence: returning a ``set`` display/comprehension, or
  materialising one through ``list(...)`` / ``tuple(...)``, whose
  iteration order is hash-dependent and would leak into results.

When the analysed project contains neither seed module (e.g. linting a
fixture directory in isolation), every module is treated as
worker-reachable so the rule stays testable standalone.
"""

from __future__ import annotations

import ast

from repro.analysis.core import Finding, ModuleUnit, Project, Rule

#: Reachability roots: the code that runs inside pool workers.
SEED_MODULES = ("repro.parallel.worker", "repro.resilience.faults")

#: ``module attr`` calls that read wall-clock or OS entropy.
_BANNED_ATTR_CALLS = {
    ("time", "time"),
    ("os", "urandom"),
    ("uuid", "uuid4"),
    ("uuid", "uuid1"),
}

#: ``datetime``-ish receivers whose now/today/utcnow is wall-clock.
_CLOCK_ATTRS = {"now", "utcnow", "today"}

#: Functions of :mod:`random`'s hidden global RNG.
_GLOBAL_RNG_FUNCS = {
    "random",
    "randint",
    "randrange",
    "randbytes",
    "choice",
    "choices",
    "shuffle",
    "sample",
    "uniform",
    "gauss",
    "normalvariate",
    "betavariate",
    "expovariate",
    "getrandbits",
}


def _dotted(node: ast.expr) -> str | None:
    """Render ``a.b.c`` attribute chains; None for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _is_set_expression(node: ast.expr) -> bool:
    return isinstance(node, (ast.Set, ast.SetComp)) or (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


class DeterminismRule(Rule):
    rule_id = "RA001"
    title = "worker-reachable code must be deterministic"
    rationale = (
        "frequency sets and frequency.* counters are contractually "
        "bit-identical across serial/threads/shards and under faults; "
        "wall-clock, OS entropy, unseeded RNGs, and set iteration order "
        "in worker-reachable modules break that silently"
    )

    def __init__(self, seeds: tuple[str, ...] = SEED_MODULES) -> None:
        self.seeds = seeds

    def run(self, project: Project) -> list[Finding]:
        in_scope = project.reachable_from(self.seeds)
        units = (
            [project.by_module[name] for name in sorted(in_scope)]
            if in_scope
            else project.units  # standalone mode: no seeds present
        )
        findings: list[Finding] = []
        for unit in units:
            findings.extend(self._check_unit(unit))
        return findings

    def _check_unit(self, unit: ModuleUnit) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(unit.tree):
            if isinstance(node, ast.Call):
                findings.extend(self._check_call(unit, node))
            elif isinstance(node, ast.Return) and node.value is not None:
                if _is_set_expression(node.value):
                    findings.append(
                        self.finding(
                            unit,
                            node.lineno,
                            "returns a set, whose iteration order is "
                            "hash-dependent; return a sorted sequence "
                            "instead",
                        )
                    )
        return findings

    def _check_call(self, unit: ModuleUnit, call: ast.Call) -> list[Finding]:
        findings: list[Finding] = []
        dotted = _dotted(call.func)
        if dotted is not None:
            parts = tuple(dotted.split("."))
            head, tail = parts[0], parts[-1]
            if (head, tail) in _BANNED_ATTR_CALLS and len(parts) == 2:
                findings.append(
                    self.finding(
                        unit,
                        call.lineno,
                        f"call to {dotted}() is non-deterministic in "
                        "worker-reachable code",
                    )
                )
            elif (
                tail in _CLOCK_ATTRS
                and len(parts) >= 2
                and parts[-2] in ("datetime", "date")
            ):
                findings.append(
                    self.finding(
                        unit,
                        call.lineno,
                        f"wall-clock read {dotted}() in worker-reachable "
                        "code; results must not depend on when a chunk ran",
                    )
                )
            elif (
                len(parts) == 2
                and head == "random"
                and tail in _GLOBAL_RNG_FUNCS
            ):
                findings.append(
                    self.finding(
                        unit,
                        call.lineno,
                        f"{dotted}() draws from the unseeded global RNG; "
                        "use random.Random(seed) so replays are exact",
                    )
                )
            elif (
                tail in ("Random", "default_rng")
                and not call.args
                and not call.keywords
            ):
                findings.append(
                    self.finding(
                        unit,
                        call.lineno,
                        f"{dotted}() constructed without a seed in "
                        "worker-reachable code",
                    )
                )
        elif isinstance(call.func, ast.Name) and call.func.id in (
            "list",
            "tuple",
            "sorted",
        ):
            # list(set(...)) / tuple({...}) fix the hash order into a
            # sequence; sorted(...) is the deterministic spelling.
            if (
                call.func.id != "sorted"
                and call.args
                and _is_set_expression(call.args[0])
            ):
                findings.append(
                    self.finding(
                        unit,
                        call.lineno,
                        f"{call.func.id}() over a set freezes "
                        "hash-dependent iteration order; use sorted(...)",
                    )
                )
        return findings
