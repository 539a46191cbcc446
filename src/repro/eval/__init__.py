"""Experiment drivers regenerating every table and figure of the paper's
evaluation section.  Each driver returns :class:`~repro.eval.report.Table`
objects that render to text and archive under ``benchmarks/results/``.

Import a driver from the submodule that defines it, such as
``repro.eval.latency`` or ``repro.eval.fleet``; this package re-exports
nothing, so loading one driver does not load the others."""
