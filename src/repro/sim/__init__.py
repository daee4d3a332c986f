"""Discrete-event simulation kernel.

The kernel is deliberately small: a :class:`Simulator` whose calendar of
exact-tick buckets dispatches ``(callback, arg)`` pairs in (time, priority,
FIFO) order, a :class:`Component` base class for model objects that
schedule events, deterministic random number management (including the
paper's "perturbation" methodology, Section 4.3), and statistics
containers used throughout the library.
"""
