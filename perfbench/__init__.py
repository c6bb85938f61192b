"""End-to-end benchmark of the paper-regeneration runner.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload of :mod:`perfbench.workloads` from the root of a checkout:
fresh ``python -m repro.experiments.runner`` processes in a closed loop (one
invocation at a time) for ``S`` seconds, every output checked by
:mod:`perfbench.gate`.  With ``--trace 1`` the same loop alternates untraced
and traced invocations of :mod:`perfbench.traced`, which wraps the layers'
public functions (:mod:`perfbench.tracing`) and reports self times per
layer.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
