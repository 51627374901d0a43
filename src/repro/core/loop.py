"""The continuous-engineering loop: artifact lifecycle across versions.

`ContinuousVerifier` settles one modified problem against one artifact set;
real continuous engineering is a *sequence* of monitor enlargements and
fine-tuning steps.  :class:`EngineeringLoop` owns that sequence:

* it keeps the current verified problem and its proof artifacts;
* every accepted change *advances the baseline* -- the enlarged domain or
  the new version becomes the problem the next change is compared against;
* when proof reuse fails, it transparently re-verifies from scratch and
  refreshes the artifacts (recording that the expensive path was taken);
* the full history, with per-step strategies and timings, feeds reports.

This is the programmatic embodiment of the paper's workflow: "it is a
realistic expectation to encounter multiple domain enlargement and
fine-tuning activities".
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional

from repro.api.config import DEFAULT_NODE_LIMIT, VerifyConfig
from repro.domains.box import Box
from repro.nn.network import Network
from repro.core.artifacts import ProofArtifacts
from repro.core.continuous import (
    FIXING_PREFIX,
    ContinuousResult,
    ContinuousVerifier,
)
from repro.core.problem import SVbTV, SVuDC, VerificationProblem
from repro.core.propositions import FULL, PROP6
from repro.core.verifier import _verify_from_scratch

__all__ = ["LoopStep", "EngineeringLoop"]


@dataclass
class LoopStep:
    """One accepted (or rejected) change in the loop history."""

    kind: str                      # "initial" | "domain" | "version"
    holds: Optional[bool]
    strategy: str
    elapsed: float
    reverified: bool = False       # did this step pay a from-scratch run?
    detail: str = ""
    #: Certificate warm-start economics of this step's exact legs
    #: (:mod:`repro.certs`): frontier leaves seeded from a stored
    #: certificate and LP solves the batched re-screen made unnecessary.
    nodes_reused: int = 0
    lp_solves_saved: int = 0


@dataclass
class EngineeringLoop:
    """Stateful continuous-verification driver.

    ``config`` (default :class:`VerifyConfig`) is the one source of solver
    settings for every step (see :meth:`_config` for its node budget).
    """

    problem: VerificationProblem
    state_buffer: float = 0.03
    rigor: str = "range"
    with_network_abstraction: bool = False
    netabs_groups: int = 4
    netabs_margin: float = 0.02
    #: Engine configuration for every exact leg.
    config: Optional[VerifyConfig] = None
    #: Optional certificate provider (``cert_get``/``cert_put`` of JSON
    #: wire strings) handed to every :class:`ContinuousVerifier`; with a
    #: ``certs="record"``/``"reuse"`` config policy the full-fallback legs
    #: persist and warm-start from stored frontiers across iterations.
    certs: Optional[object] = None  # repro: disable=no-restated-defaults

    artifacts: Optional[ProofArtifacts] = None
    history: List[LoopStep] = field(default_factory=list)

    def _config(self) -> VerifyConfig:
        config = self.config or VerifyConfig()
        if config.node_limit == DEFAULT_NODE_LIMIT:
            # Unless the config chose a local budget, the proposition
            # checks also run under the *full* node budget; a small loop
            # budget sets node_limit (and full_node_limit) in the config.
            config = config.replace(
                node_limit=config.effective_full_node_limit)
        return config

    # ----------------------------------------------------------------- setup
    def initial_verification(self) -> LoopStep:
        """Verify the starting problem from scratch and store artifacts."""
        outcome = _verify_from_scratch(
            self.problem, state_buffer=self.state_buffer, rigor=self.rigor,
            with_network_abstraction=self.with_network_abstraction,
            netabs_groups=self.netabs_groups, netabs_margin=self.netabs_margin,
            config=self._config())
        self.artifacts = outcome.artifacts
        step = LoopStep(kind="initial", holds=outcome.holds,
                        strategy="from scratch", elapsed=outcome.elapsed,
                        reverified=True, detail=outcome.detail)
        self.history.append(step)
        return step

    def _verifier(self) -> ContinuousVerifier:
        if self.artifacts is None:
            raise RuntimeError("call initial_verification() first")
        return ContinuousVerifier(self.artifacts, config=self._config(),
                                  certs=self.certs)

    def _refresh(self, problem: VerificationProblem) -> ProofArtifacts:
        outcome = _verify_from_scratch(
            problem, state_buffer=self.state_buffer, rigor=self.rigor,
            with_network_abstraction=self.with_network_abstraction,
            netabs_groups=self.netabs_groups, netabs_margin=self.netabs_margin,
            config=self._config())
        if outcome.holds:
            self.artifacts = outcome.artifacts
        return outcome.artifacts

    # ----------------------------------------------------------------- steps
    def on_domain_enlarged(self, enlarged_din: Box) -> LoopStep:
        """The monitor reported new inputs: settle SVuDC and advance."""
        started = time.perf_counter()
        result: ContinuousResult = self._verifier().verify_domain_change(
            SVuDC(self.problem, enlarged_din))
        reverified = False
        if result.holds:
            new_problem = VerificationProblem(
                self.problem.network, enlarged_din, self.problem.dout)
            # Proof reuse settled safety but the artifacts still describe
            # the old Din; refresh them so the *next* change compares
            # against the enlarged baseline.
            self._refresh(new_problem)
            self.problem = new_problem
            reverified = True
        step = LoopStep(kind="domain", holds=result.holds,
                        strategy=result.strategy,
                        elapsed=time.perf_counter() - started,
                        reverified=reverified, detail=result.strategy,
                        nodes_reused=result.nodes_reused,
                        lp_solves_saved=result.lp_solves_saved)
        self.history.append(step)
        return step

    def on_new_version(self, new_network: Network,
                       enlarged_din: Optional[Box] = None) -> LoopStep:
        """A fine-tuned version arrived: settle SVbTV and advance."""
        started = time.perf_counter()
        result = self._verifier().verify_new_version(
            SVbTV(self.problem, new_network, enlarged_din))
        reverified = False
        if result.holds:
            din = enlarged_din if enlarged_din is not None else self.problem.din
            new_problem = VerificationProblem(new_network, din,
                                              self.problem.dout)
            if result.strategy.startswith((PROP6, FULL, FIXING_PREFIX)):
                # Either we already paid a full run, or the accepted
                # strategy does not yield fresh layered artifacts: refresh.
                self._refresh(new_problem)
                reverified = True
            else:
                # State-abstraction reuse succeeded: the stored S_i remain
                # valid for the new network (that is what was just proved),
                # so only swap the problem's network.
                self.artifacts.problem = new_problem
            self.problem = new_problem
        step = LoopStep(kind="version", holds=result.holds,
                        strategy=result.strategy,
                        elapsed=time.perf_counter() - started,
                        reverified=reverified, detail=result.strategy,
                        nodes_reused=result.nodes_reused,
                        lp_solves_saved=result.lp_solves_saved)
        self.history.append(step)
        return step

    # ---------------------------------------------------------------- report
    def summary(self) -> str:
        lines = ["Engineering-loop history"]
        for i, step in enumerate(self.history):
            verdict = {True: "safe", False: "NOT PROVED", None: "unknown"}[step.holds]
            flag = " (re-verified)" if step.reverified else ""
            if step.nodes_reused or step.lp_solves_saved:
                flag += (f" [reused {step.nodes_reused} nodes, "
                         f"saved {step.lp_solves_saved} LPs]")
            lines.append(f"  {i:>2} {step.kind:>8}: {verdict:<10} via "
                         f"{step.strategy:<24} {step.elapsed * 1e3:9.2f} ms{flag}")
        cheap = sum(1 for s in self.history if not s.reverified)
        lines.append(f"  {cheap}/{len(self.history)} steps settled by proof "
                     "reuse alone")
        saved = sum(s.lp_solves_saved for s in self.history)
        if saved:
            lines.append(f"  certificate reuse saved {saved} LP solves "
                         "across the loop")
        return "\n".join(lines)
