"""Every cap on the work of one call, and the ledger it is charged to.

A step is charged to its cap's counter where it runs, before it runs, and
refused if it would pass the cap (`charge`); a refusal told before any of
the work is an up-front estimate (`check`).  Each bounded call runs in a
ledger of its own, held in a context variable, and adds its counts to the
enclosing one when it closes; a charge outside every ledger is checked on
its own.  README.md's table says what each cap charges.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from functools import wraps

MAX_VERTEX_WORK = 50_000         # one face search's vertex route
MAX_REGION_WORK = 10_000_000     # one face search's pivots and phase 2 runs
MAX_CHARACTERS = 1_000_000       # one character sweep
MAX_SWEEP_WORK = 1_000_000       # one oracle sweep's evaluations, field tables and dividers
MAX_KOSZUL_WORK = 1_000_000      # one Koszul complex build
MAX_GERMS = 100_000              # one cone family's germs

_LEDGER: ContextVar = ContextVar("quasiadj_ledger", default=None)
_CAPS = globals()  # read at each check, so a cap set on the module takes effect


class Refused(ValueError):
    """Work past a cap, refused before it ran."""


@contextmanager
def ledger(**refusals):
    """Run the enclosed work in a fresh ledger, a dict of units by cap name,
    which is yielded.  refusals maps a cap's name to the message of a charge
    past it, a format string with {cap}."""
    book = {}
    token = _LEDGER.set((book, refusals))
    try:
        yield book
    finally:
        _LEDGER.reset(token)
        outer = _LEDGER.get()
        for cap, units in book.items() if outer else ():
            outer[0][cap] = outer[0].get(cap, 0) + units


def metered(fn):
    """fn, run in a ledger of its own on every call."""
    @wraps(fn)
    def call(*args, **kwargs):
        with ledger():
            return fn(*args, **kwargs)
    return call


def check(cap: str, units: int, message: str, *args, error=Refused) -> None:
    """Refuse an estimate of units past cap before any of the work: raise
    error with message formatted with args, {cap} and {units}."""
    if units > _CAPS[cap]:
        raise error(message.format(*args, cap=_CAPS[cap], units=units))


def charge(cap: str, units: int) -> None:
    """Charge one step's units to cap in the current ledger, before the step
    runs; a step that would take the count past the cap is refused."""
    state = _LEDGER.get()
    spent = units if state is None else state[0].get(cap, 0) + units
    if spent > _CAPS[cap]:
        message = state and state[1].get(cap) or "work of %d units exceeds %s = {cap}" % (spent, cap)
        raise Refused(message.format(cap=_CAPS[cap]))
    if state is not None:
        state[0][cap] = spent
