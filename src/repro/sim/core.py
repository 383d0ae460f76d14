"""Empty placeholder for the retired kernel-helper module.

It defines nothing: the event loop lives in :mod:`repro.sim.engine`.
The module stays importable only because ``perfbench/spans.py`` lists
it in the ``sim`` layer of its per-layer span table and imports every
module it names.  Delete it together with that entry.
"""
