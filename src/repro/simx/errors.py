"""Exception types raised by the simulation engine."""


class SimulationError(Exception):
    """Base class for all errors raised by :mod:`repro.simx`."""


class DeadlockError(SimulationError):
    """Raised by :meth:`Engine.run` when ``run_until_deadlock`` detects that
    live processes remain but no events are scheduled.

    A deadlock in the simulator almost always indicates a modeling bug —
    e.g. an MPI rank blocked on a receive that no one will send, or a task
    waiting on a lock whose holder has exited.  The error message lists the
    blocked processes to make those bugs debuggable.
    """


class ProcessKilled(SimulationError):
    """Injected into a process generator when :meth:`Process.kill` is called."""


class NodeFailedError(SimulationError):
    """Thrown into every task process hosted on a node when the node fails.

    Unlike :class:`ProcessKilled` (which terminates a process *cleanly* —
    its ``done_event`` succeeds), a node failure is an *error* outcome:
    the process's ``done_event`` fails, so joiners and the MPI layer can
    distinguish "rank finished" from "rank died with its node"."""


class GateClosedForever(SimulationError):
    """Raised when a wake-up is delivered through a gate that reports it
    will never reopen (e.g. a node that has been powered off)."""
