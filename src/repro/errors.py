"""Exception hierarchy for the NACU reproduction library."""


class ReproError(Exception):
    """Base class for all library-specific errors."""


class FormatError(ReproError):
    """A fixed-point format is invalid or incompatible with an operation."""


class RangeError(ReproError):
    """A value falls outside the range an operation is specified for."""


class ConfigError(ReproError):
    """A unit was configured inconsistently."""


class ConvergenceError(ReproError):
    """An iterative optimiser failed to reach its target."""


class ServeError(ReproError):
    """The serving layer could not honour a request."""


class BackpressureError(ServeError):
    """A request was shed because the server's bounded queue is full.

    Raised at ``submit()`` time — an overloaded server rejects loudly
    (and counts the shed in ``serve.*`` telemetry) instead of buffering
    without bound. Callers retry, downsample, or route elsewhere.
    """


class ServerClosedError(ServeError):
    """A request arrived after the server began shutting down."""


class WorkerCrashError(ServeError):
    """A pooled worker process died with requests in flight.

    Raised into the futures of every batch the dead worker held. The
    pool restarts the worker (when ``restart=True``) and counts the
    death under ``serve.pool.worker_deaths`` — callers retry; the
    failure is never silent and never hangs the queue.

    Carries forensics alongside the message: ``worker_id``,
    ``in_flight_seqs`` (the dispatch sequence numbers the worker held),
    and ``ring_slots`` (the orphaned ring slots' header state — a slot
    whose generation outruns its commit word is the frame a SIGKILL
    tore mid-write).
    """

    def __init__(self, message, *, worker_id=None, in_flight_seqs=(),
                 ring_slots=()):
        self.worker_id = worker_id
        self.in_flight_seqs = tuple(in_flight_seqs)
        self.ring_slots = tuple(ring_slots)
        if self.in_flight_seqs:
            message += f" [seqs {list(self.in_flight_seqs)}]"
        if self.ring_slots:
            message += "; ring slots: " + ", ".join(
                str(state) for state in self.ring_slots
            )
        super().__init__(message)


class TornFrameError(ServeError):
    """A shared-memory ring frame failed its generation/commit check.

    The ring transport stamps every slot write with a generation word
    and marks it committed only after the payload lands; a reader that
    finds ``generation != commit`` (or the wrong seq/size) is looking at
    a frame a crash tore mid-write — the bytes are refused, never
    served. Counted under ``serve.pool.torn_frames``.
    """


class ResponseVerificationError(ServeError):
    """A returned batch failed the parent-side response checks.

    Raised into request futures only after the response policy's retry
    budget is exhausted — a response the :class:`~repro.serve.resilience.
    ResponseVerifier` flagged (range invariant, softmax row-sum bound,
    or canary mismatch) is never delivered as if it were correct. Counted
    under ``serve.resilience.verify_failures``; burns SLO error budget.
    """


class ResponseTimeoutError(ServeError):
    """A dispatched batch overran the response deadline on every attempt.

    Counted under ``serve.resilience.timeouts``.
    """
