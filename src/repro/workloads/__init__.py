"""Synthetic commercial-workload generators.

The paper drives its memory-hierarchy simulator with Simics running DB2
(TPC-C and TPC-H), Apache+SURGE, AltaVista and SPLASH-2 barnes on Solaris.
Those binaries and datasets are proprietary; what the coherence protocols
actually *see*, however, is only a stream of level-two references with a
particular sharing signature.  This package synthesises streams with the same
signatures: each workload profile is calibrated so the simulated Table 3
(footprint, miss volume, cache-to-cache fraction) matches the paper's
characterisation.  See DESIGN.md for the substitution rationale.
"""
