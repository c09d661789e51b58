"""Pure-Python reference implementations (the differential oracles).

The package computes everything on the columnar engine: validation
(:mod:`repro.sim.validate_np`), analysis
(:mod:`repro.schedule.analysis_np`), the pass kernels
(:mod:`repro.passes.kernels`) and the numpy-broadcasting builders.  The
modules here are the executable specification those kernels are tested
against: plain per-``SendOp`` loops written for clarity, not speed.

* :mod:`tests.oracles.analysis` — availability, completion, delays;
* :mod:`tests.oracles.validate` — the scalar LogP legality checker;
* :mod:`tests.oracles.transform` — every schedule pass, one loop each;
* :mod:`tests.oracles.builders` — per-send loop builders;
* :mod:`tests.oracles.implicit` — the optimal tree's per-delay scan
  (parents, delays, chunk edge facts) and its run table rebuilt per
  ``P``;
* :mod:`tests.oracles.tree` — the per-processor heap construction of
  ``B(P)`` and the broadcast schedule expanded from it.

Hypothesis twins compare oracle and kernel outputs (violation strings
as a multiset, schedules as canonical JSON); the perf gates in
``benchmarks/`` time them as the slow side of each speedup.
"""
