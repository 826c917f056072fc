"""Deterministic open-loop load generator for the simulated network.

Clients live *in the kernel* (remote peers), not in the library: each
one is a kernel-resident :class:`~repro.unix.net.ResidentClient` state
record -- no thread, no generator, no stack -- advanced directly by
event-horizon entries (its pre-scheduled arrival, link deliveries, and
think-time wakeups).  The record is also the client's end of its
connection (a :class:`~repro.unix.net.RemoteEndpoint`), so a connection
costs the record plus one server-side socket.  This front-end only
*compiles* the arrival process: arrival times, and nothing else, come
from a salted fork of the world RNG -- the same seed always produces
the same arrival schedule, byte counts, and therefore the same run.
The per-client protocol and all result counters live in the shared
:class:`~repro.unix.net.ResidentClientEngine`, so a client costs O(1)
memory and the fleet scales to the sf100 fixture (10^5 concurrent
clients) and beyond.

Open-loop: client arrivals follow the configured process regardless of
how the server is coping (the server being slow does not slow the
offered load -- queues grow instead, which is exactly what the
architecture comparison wants to expose).  Within one connection the
client is closed-loop: it sends, waits for the reply, thinks for
``think_us``, then sends again, ``requests_per_client`` times, then
closes.

Messages carry only a byte count.  Each client keeps its own send
time; the reply's arrival at the client closes the end-to-end latency
sample (two link traversals plus all server-side queueing and
service).  Results are read from the engine the stack holds
(``stack.resident``).
"""

from __future__ import annotations

from repro.unix.net import NetStack, ResidentClient, ResidentClientEngine

ARRIVALS = ("poisson", "bursty", "uniform")

#: Arrival times count from here (simulated us); the first gap is added.
START_US = 10.0
#: Salt of the RNG fork the arrival times come from ("ne").
RNG_SALT = 0x6E65


class LoadGenerator:
    """Open-loop client fleet over a :class:`~repro.unix.net.NetStack`.

    ``arrival`` selects the inter-arrival process:

    - ``poisson``: exponential gaps with mean ``mean_gap_us`` (drawn
      from the salted world RNG);
    - ``bursty``: ``burst`` clients arrive simultaneously, bursts are
      spaced ``mean_gap_us * burst`` apart (same offered rate, maximal
      short-term pressure on the accept queue);
    - ``uniform``: fixed ``mean_gap_us`` gaps.
    """

    def __init__(
        self,
        stack: NetStack,
        port: int,
        clients: int,
        requests_per_client: int = 3,
        req_bytes: int = 256,
        arrival: str = "poisson",
        mean_gap_us: float = 40.0,
        burst: int = 8,
        think_us: float = 150.0,
    ) -> None:
        if arrival not in ARRIVALS:
            raise ValueError(
                "unknown arrival process %r (have: %s)"
                % (arrival, ", ".join(ARRIVALS))
            )
        self._world = stack._world
        self.clients = clients
        self.arrival = arrival
        self.mean_gap_us = mean_gap_us
        self.burst = max(1, burst)
        self._rng = self._world.rng.fork(RNG_SALT)
        self._engine = ResidentClientEngine(
            stack,
            port,
            requests_per_client=requests_per_client,
            req_bytes=req_bytes,
            think_us=think_us,
        )

    # -- schedule ------------------------------------------------------------

    def start(self) -> None:
        """Compile every client arrival to one pre-scheduled event.

        Costs zero cycles: the fleet exists purely as event-horizon
        entries, each the callout ``ResidentClient.arrive(record)``.
        """
        world = self._world
        engine = self._engine
        t = START_US
        for i in range(self.clients):
            if self.arrival == "poisson":
                t += self._rng.expovariate(self.mean_gap_us)
            elif self.arrival == "bursty":
                if i and i % self.burst == 0:
                    t += self.mean_gap_us * self.burst
            else:  # uniform
                t += self.mean_gap_us
            world.post_in(
                max(1, world.cycles_for_us(t - world.now_us)),
                ResidentClient.arrive, engine.client(), "client-arrive",
            )
