"""repro-flow: interprocedural taint + determinism dataflow analysis.

Run as ``python -m repro.devtools.analyze --tool flow``.  See
:mod:`repro.devtools.flow.registry` for the rule catalogue and
:mod:`repro.devtools.flow.analysis` for the shared project pass.
"""
