"""Decision engine for automated intrusion response in vehicle networks.

Given a detector report (which asset attacked which, what the intrusion
does, how fast the vehicle is going), the engine scores the intrusion,
generates the applicable countermeasures from a JSON catalog, picks the
optimal one by a pluggable strategy, and adapts response parameters from
execution feedback.  The ``react`` CLI drives scenario files through
static-quality, dynamic-feedback, and velocity-sweep evaluations.

The modules are the API; this package re-exports nothing, so importing
one module loads only what it needs.  Import each name from its module:

- ``react_irs.engine``: ``Engine`` and the verdicts ``Success``,
  ``Failure`` and ``NewIntrusion``;
- ``react_irs.files``: the loaders (``load_catalog``, ``load_scenario``,
  ...) and ``data_dir``;
- ``react_irs.selection``: ``make_selector`` and the strategies;
- ``react_irs.harness``: the run modes and ``emit_series``;
- ``react_irs.model``: the types.
"""

__version__ = "0.1.0"
