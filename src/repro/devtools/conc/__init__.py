"""repro-conc: parallel-safety & cache-coherence static analysis.

Run as ``python -m repro.devtools.analyze --tool conc``.  See
:mod:`repro.devtools.conc.registry` for the rule catalogue (C001–C006).
"""
