"""Technology-independent synthesis flows: named pass pipelines.

A *pass* is a function-preserving AIG-to-AIG transformation; :data:`PASSES`
names the ones the built-in flows run (the algorithms live in
:mod:`repro.synthesis.optimize`).  A :class:`FlowSpec` describes a flow as
data: a *prologue* (passes run once), a *round* (passes repeated up to
``max_rounds`` times or until the node count stops improving), and the
best-result bookkeeping that makes the flow monotone (never return a larger
or deeper network than the input).  The driver in :meth:`FlowSpec.run`
executes the spec, timing every pass and recording node/depth telemetry in
the returned :class:`FlowResult`.

Built-in flows (:data:`FLOWS`):

``none``
    Identity -- map the subject graph exactly as built.
``quick``
    One balancing pass; the cheapest flow that still fixes gross depth
    problems.
``resyn2rs``
    The paper's flow (our ABC ``resyn2rs`` stand-in): balance, then up to
    three rounds of rewrite + balance, keeping the best intermediate result.
    ``repro.synthesis.optimize.optimize`` is this flow.
``deep``
    A longer sweep interleaving 4- and 3-input rewriting over up to six
    rounds, for flow-diversity experiments.

The experiment engine schedules mapping jobs by flow name and keys its
result cache on :meth:`FlowSpec.fingerprint`, so editing a flow's
definition automatically invalidates stale cached artifacts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

from repro import obs
from repro.synthesis.aig import Aig
from repro.synthesis.optimize import balance, rewrite

#: The passes the built-in flows run, by name.  Every pass preserves the
#: Boolean function of the network.
PASSES: dict[str, Callable[[Aig], Aig]] = {
    # collapse AND trees and rebuild them depth-balanced (ABC `balance`)
    "balance": balance,
    # cut-based resynthesis from 4-input cut functions (ABC `rewrite`/`refactor`)
    "rewrite": rewrite,
    # cut-based resynthesis restricted to 3-input cuts (cheap cleanup rounds)
    "rewrite3": lambda aig: rewrite(aig, max_inputs=3),
}

#: The flow used when no flow is named (the paper's synthesis script).
DEFAULT_FLOW = "resyn2rs"


@dataclass(frozen=True)
class PassResult:
    """Telemetry of one pass execution inside a flow."""

    name: str
    nodes_before: int
    nodes_after: int
    depth_before: int
    depth_after: int
    seconds: float


@dataclass
class FlowResult:
    """Outcome of one flow execution: the optimized AIG plus per-pass telemetry."""

    flow: str
    aig: Aig
    passes: list[PassResult] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        """Total time spent inside passes."""
        return sum(result.seconds for result in self.passes)

    def telemetry_lines(self) -> list[str]:
        """Human-readable per-pass summary (used by the CLI and examples)."""
        lines = []
        for result in self.passes:
            lines.append(
                f"{result.name:<10} nodes {result.nodes_before:>5} -> "
                f"{result.nodes_after:<5} depth {result.depth_before:>3} -> "
                f"{result.depth_after:<3} {result.seconds * 1000:8.1f} ms"
            )
        return lines


@dataclass(frozen=True)
class FlowSpec:
    """A named pass pipeline.

    ``prologue`` passes run once; ``round_passes`` run as a block up to
    ``max_rounds`` times, stopping early when a full round fails to shrink
    the network.  The smallest (then shallowest) of the prologue output and
    the round results is returned, or the unmodified input if it was
    already smaller.
    """

    name: str
    description: str = ""
    prologue: tuple[str, ...] = ()
    round_passes: tuple[str, ...] = ()
    max_rounds: int = 0

    def __post_init__(self) -> None:
        if self.max_rounds < 0:
            raise ValueError("max_rounds must be non-negative")
        unknown = [name for name in self.pass_names() if name not in PASSES]
        if unknown:
            raise KeyError(
                f"unknown pass(es) {', '.join(unknown)}; "
                f"known passes: {', '.join(PASSES)}"
            )

    def pass_names(self) -> tuple[str, ...]:
        """Every pass the flow can execute, in first-use order."""
        seen: list[str] = []
        for name in self.prologue + self.round_passes:
            if name not in seen:
                seen.append(name)
        return tuple(seen)

    def fingerprint(self) -> str:
        """Stable content string identifying the flow's behaviour.

        Folded into the experiment engine's cache keys so that a cached
        result from one flow definition can never satisfy a request for a
        differently defined flow of the same name.
        """
        return (
            f"{self.name}|prologue={','.join(self.prologue)}"
            f"|round={','.join(self.round_passes)}|max_rounds={self.max_rounds}"
        )

    def run(self, aig: Aig) -> FlowResult:
        """Execute the flow, collecting per-pass timing and node telemetry."""
        telemetry: list[PassResult] = []

        def apply(pass_name: str, current: Aig) -> Aig:
            nodes_before, depth_before = current.num_ands, current.depth()
            start = time.perf_counter()
            with obs.span(
                pass_name,
                category="pass",
                flow=self.name,
                nodes_before=nodes_before,
                depth_before=depth_before,
            ) as pass_span:
                transformed = PASSES[pass_name](current)
                nodes_after, depth_after = transformed.num_ands, transformed.depth()
                pass_span.set("nodes_after", nodes_after)
                pass_span.set("depth_after", depth_after)
            telemetry.append(
                PassResult(
                    name=pass_name,
                    nodes_before=nodes_before,
                    nodes_after=nodes_after,
                    depth_before=depth_before,
                    depth_after=depth_after,
                    seconds=time.perf_counter() - start,
                )
            )
            return transformed

        current = aig
        for pass_name in self.prologue:
            current = apply(pass_name, current)
        best = current
        for _ in range(self.max_rounds):
            nodes_before_round = current.num_ands
            for pass_name in self.round_passes:
                current = apply(pass_name, current)
            if (current.num_ands, current.depth()) < (best.num_ands, best.depth()):
                best = current
            if current.num_ands >= nodes_before_round:
                break
        if (aig.num_ands, aig.depth()) < (best.num_ands, best.depth()):
            best = aig
        return FlowResult(flow=self.name, aig=best, passes=telemetry)


#: The built-in flows, by name.
FLOWS: dict[str, FlowSpec] = {
    spec.name: spec
    for spec in (
        FlowSpec(
            name="none",
            description="identity: map the subject graph exactly as built",
        ),
        FlowSpec(
            name="quick",
            description="single balancing pass (cheapest useful flow)",
            prologue=("balance",),
        ),
        FlowSpec(
            name="resyn2rs",
            description="the paper's flow: balance + up to 3 rounds of rewrite/balance",
            prologue=("balance",),
            round_passes=("rewrite", "balance"),
            max_rounds=3,
        ),
        FlowSpec(
            name="deep",
            description="longer sweep interleaving 4- and 3-input rewriting (6 rounds)",
            prologue=("balance",),
            round_passes=("rewrite", "balance", "rewrite3", "balance"),
            max_rounds=6,
        ),
    )
}


def get_flow(name: str) -> FlowSpec:
    """Look up a built-in flow; raises ``KeyError`` naming the known flows."""
    try:
        return FLOWS[name]
    except KeyError:
        raise KeyError(
            f"unknown flow {name!r}; known flows: {', '.join(available_flows())}"
        ) from None


def available_flows() -> tuple[str, ...]:
    """Names of all built-in flows, sorted."""
    return tuple(sorted(FLOWS))


def run_flow(flow: str | FlowSpec, aig: Aig) -> FlowResult:
    """Execute a flow by name or spec on an AIG."""
    spec = get_flow(flow) if isinstance(flow, str) else flow
    return spec.run(aig)
