"""Discrete-event simulation kernel.

The kernel is deliberately small: a :class:`Simulator` whose calendar of
exact-tick buckets dispatches ``(callback, arg)`` pairs in (time, priority,
FIFO) order, a :class:`Component` base class for model objects that
schedule events, and deterministic random number management (including
the paper's "perturbation" methodology, Section 4.3).  Model objects keep
their own counts as plain ``int`` attributes.
"""
