"""Timestamp snooping core: the paper's primary contribution.

This package implements the logically-ordered broadcast address network of
Section 2:

* :mod:`repro.core.logical_time` -- ordering time (OT) and guarantee time
  (GT) definitions and the three slack-adjustment rules;
* :mod:`repro.core.token_switch` -- the token-passing switch with its three
  slack-adjustment rules (Figure 1);
* :mod:`repro.core.ordering_queue` -- the endpoint priority queue that
  restores the logical order;
* :mod:`repro.core.timestamp_network` -- the detailed, event-accurate
  network built from the two pieces above over any
  :class:`~repro.network.topology.Topology`;
* :mod:`repro.core.analytical_ordering` -- the closed-form unloaded-latency
  model of the same network used for full workload runs (the paper models
  no contention, so both produce the same first-order timing).
"""
