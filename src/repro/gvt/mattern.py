"""Mattern-style distributed GVT over the modelled network.

Implements the token-ring variant of Mattern's GVT algorithm [Mattern 93]
with round-numbered message colouring:

* every application physical message is stamped with its sender's current
  round number (its "colour");
* a message is *white* for round ``r`` if it was stamped with a round
  ``< r`` — i.e. sent before its sender learned of round ``r`` — and *red*
  otherwise;
* the round-``r`` token circulates the LP ring accumulating
  ``count = white-sent − white-received`` and
  ``mvt = min(local minima, red send minima)``;
* when the token returns to the initiator with ``count == 0`` every white
  message has been received *and reflected in its receiver's last report*,
  so ``mvt`` is a safe GVT bound, which the initiator broadcasts.

Multiple token passes per round are made until the white count drains;
each pass reports fresh totals, so a pass during which whites were still
flying simply fails the zero test and triggers another pass.

The token and broadcast travel as control physical messages through the
same modelled network as application traffic (they bypass aggregation but
pay full per-message cost — GVT is not free, which is why its period is
worth an ablation, see ``benchmarks/bench_abl_gvt_period.py``).

Every ``mvt`` contribution below goes through
:meth:`~repro.kernel.lp.LogicalProcess.local_min`, whose input-queue term
is the top of the LP's ready heap rather than a per-member walk — the
token ring gets the same speedup as the omniscient scan without any
change here.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..comm.message import MessageKind, PhysicalMessage
from ..kernel.event import VirtualTime

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.executive import Executive


@dataclass(slots=True, frozen=True)
class Token:
    """The circulating GVT token."""

    round: int
    mvt: float
    count: int
    #: ring position of the LP the token is being sent to
    position: int


@dataclass(slots=True, frozen=True)
class Broadcast:
    """GVT announcement ending a round."""

    round: int
    gvt: float


class ColourAgent:
    """Per-LP colouring and counting state.

    Shared between the modelled-network :class:`MatternGVT` (one agent per
    LP, stamps carried in a serial side-table) and the process-sharded
    backend (:mod:`repro.parallel`, one agent per worker, stamps carried
    explicitly in the IPC envelope — a side-table keyed by process-local
    message serials cannot cross address spaces).
    """

    __slots__ = ("round", "sent_before_round", "total_sent", "recv_by_stamp", "red_min")

    def __init__(self) -> None:
        self.round = 0
        #: total messages sent before entering the current round
        self.sent_before_round = 0
        self.total_sent = 0
        #: received-message counts keyed by the sender's stamp
        self.recv_by_stamp: defaultdict[int, int] = defaultdict(int)
        #: min event time among messages sent in the current round
        self.red_min: float = float("inf")

    def enter_round(self, round_number: int) -> None:
        if round_number > self.round:
            self.round = round_number
            self.sent_before_round = self.total_sent
            self.red_min = float("inf")

    def note_send(self, min_event_time: VirtualTime | None) -> int:
        """Record a send; returns the stamp to attach to the message."""
        self.total_sent += 1
        if min_event_time is not None and min_event_time < self.red_min:
            self.red_min = min_event_time
        return self.round

    def note_receive(self, stamp: int) -> None:
        self.recv_by_stamp[stamp] += 1

    def white_sent(self) -> int:
        return self.sent_before_round

    def white_received(self) -> int:
        return sum(n for stamp, n in self.recv_by_stamp.items() if stamp < self.round)

    def red_sent(self) -> int:
        """Messages sent since entering the current round."""
        return self.total_sent - self.sent_before_round


#: Backward-compatible alias (the agent was private before repro.parallel
#: started reusing it).
_Agent = ColourAgent


class MatternGVT:
    """Distributed GVT estimation through the modelled network."""

    def __init__(self, executive: "Executive") -> None:
        self._executive = executive
        self.gvt: VirtualTime = 0.0
        self._agents = [ColourAgent() for _ in executive.lps]
        self._stamps: dict[int, int] = {}  # physical message serial -> stamp
        self._round = 0
        self._active = False
        self.rounds_completed = 0
        self.token_passes = 0

    # ------------------------------------------------------------------ #
    # executive interface
    # ------------------------------------------------------------------ #
    @property
    def round_active(self) -> bool:
        return self._active

    def start_round(self) -> None:
        if self._active:
            return  # previous round still draining; skip this tick
        executive = self._executive
        if len(executive.lps) < 2:
            # Degenerate single-LP "ring": the local bound is the truth.
            estimate = executive.lps[0].local_min()
            wire = executive.network.min_in_flight_time()
            if wire is not None:
                estimate = min(estimate, wire)
            self._commit(estimate)
            return
        self._round += 1
        self._active = True
        initiator = executive.lps[0]
        agent = self._agents[0]
        agent.enter_round(self._round)
        initiator.charge(initiator.costs.gvt_participation_cost)
        initiator.stats.gvt_rounds += 1
        token = Token(
            round=self._round,
            mvt=min(initiator.local_min(), agent.red_min),
            count=agent.white_sent() - agent.white_received(),
            position=1,
        )
        self._send_token(0, token)

    def handle_control(self, message: PhysicalMessage) -> None:
        control = message.control
        if isinstance(control, Token):
            self._on_token(message.dst_lp, control)
        elif isinstance(control, Broadcast):
            self._on_broadcast(message.dst_lp, control)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown GVT control payload: {control!r}")

    def observe_send(self, message: PhysicalMessage) -> None:
        agent = self._agents[message.src_lp]
        stamp = agent.note_send(message.min_event_time())
        self._stamps[message.serial] = stamp

    def observe_receive(self, message: PhysicalMessage) -> None:
        stamp = self._stamps.pop(message.serial, None)
        if stamp is None:
            # Retransmit safety: a fault-injecting wire may hand the same
            # logical message to the kernel only once (dedup), but a
            # defensively re-observed serial must not count as a second
            # receive — colouring counts logical messages, not copies.
            return
        self._agents[message.dst_lp].note_receive(stamp)

    # ------------------------------------------------------------------ #
    # token protocol
    # ------------------------------------------------------------------ #
    def _send_token(self, from_lp: int, token: Token) -> None:
        executive = self._executive
        dst = token.position % len(executive.lps)
        lp = executive.lps[from_lp]
        lp.comm.send_control(dst, MessageKind.GVT_TOKEN, token)
        self.token_passes += 1

    def _on_token(self, lp_id: int, token: Token) -> None:
        executive = self._executive
        lp = executive.lps[lp_id]
        agent = self._agents[lp_id]
        agent.enter_round(token.round)
        lp.charge(lp.costs.gvt_participation_cost)
        lp.stats.gvt_rounds += 1

        if lp_id == 0:
            # Token returned to the initiator: zero count ends the round.
            if token.count == 0:
                self._active = False
                self.rounds_completed += 1
                gvt = min(token.mvt, lp.local_min(), agent.red_min)
                for dst in range(1, len(executive.lps)):
                    lp.comm.send_control(dst, MessageKind.GVT_BROADCAST,
                                         Broadcast(round=token.round, gvt=gvt))
                self._commit(gvt)
            else:
                # Whites still in flight: another pass with fresh totals.
                fresh = Token(
                    round=token.round,
                    mvt=min(lp.local_min(), agent.red_min),
                    count=agent.white_sent() - agent.white_received(),
                    position=1,
                )
                self._send_token(0, fresh)
            return

        forwarded = Token(
            round=token.round,
            mvt=min(token.mvt, lp.local_min(), agent.red_min),
            count=token.count + agent.white_sent() - agent.white_received(),
            position=token.position + 1,
        )
        self._send_token(lp_id, forwarded)

    def _on_broadcast(self, lp_id: int, broadcast: Broadcast) -> None:
        lp = self._executive.lps[lp_id]
        self._agents[lp_id].enter_round(broadcast.round)
        lp.charge(lp.costs.gvt_participation_cost)
        lp.fossil_collect(broadcast.gvt)

    def _commit(self, estimate: VirtualTime) -> None:
        executive = self._executive
        oracle = executive.oracle
        if oracle.enabled:
            oracle.on_gvt_estimate(executive.wallclock, estimate, self.gvt)
        tracer = executive.tracer
        if tracer.enabled:
            tracer.emit(
                "gvt.round", executive.wallclock,
                algorithm="mattern", gvt=estimate,
                advanced=estimate > self.gvt,
            )
        if estimate > self.gvt:
            self.gvt = estimate
            # The initiator collects immediately; the other LPs collect
            # when their broadcast arrives.
            self._executive.lps[0].fossil_collect(estimate)
            self._executive.on_new_gvt(estimate)
