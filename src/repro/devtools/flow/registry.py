"""Source, sink, and rule registry for the flow analyses.

The taint model is *structural* rather than hard-coded to repro module
names, so the same analyzer checks both ``src/repro`` and the seeded
test fixture packages:

* **Sources** — calls whose return value is untrusted: any
  ``.fetch(...)`` (web content; the :class:`~repro.web.host.WebHost`
  protocol) and any file-content read (``.read()``, ``.read_text()``,
  ``.readlines()``).
* **Sinks** — dangerous positions, each with a *category* a sanitizer
  can clear: filesystem path construction and ``open()`` (``path``),
  regex-pattern positions (``regex``), outbound fetch URLs (``ssrf``),
  and report/log string interpolation (``report``).
* **Sanitizers** — functions carrying the
  :func:`repro.devtools.sanitizers.sanitizes` decorator, read
  statically from the AST by the project loader.

Rule catalogue (``python -m repro.devtools.analyze --tool flow --list-rules``):

======  ===============================================================
T001    untrusted data reaches a filesystem path / ``open()`` sink
T002    untrusted data used as a regular-expression pattern
T003    regex literal vulnerable to catastrophic backtracking (ReDoS)
T004    untrusted URL reaches an outbound fetch (SSRF) without
        registrable-domain pinning
T005    untrusted data interpolated into a report/log string
D001    unseeded RNG reachable from an experiment entrypoint
D002    wall-clock read feeding values reachable from an entrypoint
D003    iteration over an unordered set feeding results, reachable
        from an entrypoint
======  ===============================================================
"""

from __future__ import annotations

__all__ = [
    "FLOW_RULES",
    "TAINT_RULE_BY_CATEGORY",
    "SOURCE_ATTR_NAMES",
    "FILE_READ_ATTRS",
    "PATH_SINK_BUILTINS",
    "PATH_SINK_DOTTED",
    "PATH_SINK_ANY_ARG",
    "REGEX_SINK_DOTTED",
    "FETCH_ATTR_NAMES",
    "FETCH_SINK_DOTTED",
    "REPORT_MODULE_SUFFIXES",
    "LOGGER_BASE_NAMES",
    "LOGGER_METHODS",
    "CLOCK_CALLS",
    "SEEDED_RNG_ALLOWED",
    "CLEAN_BUILTINS",
    "PROPAGATING_BUILTINS",
]

#: Rule id -> one-line description (CLI catalogue + SARIF metadata).
FLOW_RULES: dict[str, str] = {
    "T001": "untrusted data reaches a filesystem path/open() sink",
    "T002": "untrusted data used as a regular-expression pattern",
    "T003": "regex literal vulnerable to catastrophic backtracking (ReDoS)",
    "T004": "untrusted URL reaches an outbound fetch (SSRF)",
    "T005": "untrusted data interpolated into a report/log string",
    "D001": "unseeded RNG reachable from an experiment entrypoint",
    "D002": "wall-clock read feeding values reachable from an entrypoint",
    "D003": "unordered-set iteration feeding results reachable from an entrypoint",
}

#: sink category -> taint rule id.
TAINT_RULE_BY_CATEGORY = {
    "path": "T001",
    "regex": "T002",
    "ssrf": "T004",
    "report": "T005",
}

# -- sources ---------------------------------------------------------------

#: Attribute-call names whose return value is untrusted web content.
SOURCE_ATTR_NAMES = frozenset({"fetch"})

#: Attribute-call names whose return value is untrusted file content.
FILE_READ_ATTRS = frozenset({"read", "read_text", "read_bytes", "readlines"})

# -- sinks -----------------------------------------------------------------

#: Builtin call names whose first argument is a filesystem path.
PATH_SINK_BUILTINS = frozenset({"open"})

#: Resolved dotted calls whose first argument is a filesystem path.
PATH_SINK_DOTTED = frozenset(
    {
        "os.open",
        "os.remove",
        "os.unlink",
        "os.mkdir",
        "os.makedirs",
        "os.rmdir",
        "pathlib.Path",
        "pathlib.PurePath",
        "pathlib.PurePosixPath",
    }
)

#: Resolved dotted calls where *every* argument is a filesystem path.
PATH_SINK_ANY_ARG = frozenset(
    {"os.replace", "os.rename", "os.path.join", "shutil.copy", "shutil.move"}
)

#: ``re`` module functions whose first argument is a pattern.
REGEX_SINK_DOTTED = frozenset(
    {
        "re.compile",
        "re.search",
        "re.match",
        "re.fullmatch",
        "re.findall",
        "re.finditer",
        "re.split",
        "re.sub",
        "re.subn",
    }
)

#: Attribute-call names that perform an outbound fetch (URL = arg 0).
FETCH_ATTR_NAMES = frozenset({"fetch"})

#: Resolved dotted outbound-fetch calls (URL = arg 0).
FETCH_SINK_DOTTED = frozenset(
    {
        "urllib.request.urlopen",
        "requests.get",
        "requests.post",
        "requests.head",
        "httpx.get",
    }
)

#: Module path suffixes where f-string/%/.format/print interpolation is
#: a report sink (T005).  Logging calls are sinks package-wide.
REPORT_MODULE_SUFFIXES = ("report.py",)

#: Receiver names treated as loggers for the T005 logging sink.
LOGGER_BASE_NAMES = frozenset({"logger", "logging", "log"})

#: Logger methods that format untrusted data into log records.
LOGGER_METHODS = frozenset(
    {"debug", "info", "warning", "warn", "error", "critical", "exception", "log"}
)

# -- determinism -----------------------------------------------------------

#: Resolved dotted calls that read the wall clock.
CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.localtime",
        "time.gmtime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: ``numpy.random`` members that construct explicitly seeded generators
#: (mirrors repro-lint R002's allowlist).
SEEDED_RNG_ALLOWED = frozenset(
    {"default_rng", "Generator", "SeedSequence", "BitGenerator", "PCG64", "Philox"}
)

# -- builtin call modeling -------------------------------------------------

#: Builtins whose return value never carries taint (numeric casts and
#: size/identity queries break the data dependency on content).
CLEAN_BUILTINS = frozenset(
    {
        "len",
        "int",
        "float",
        "bool",
        "abs",
        "round",
        "sum",
        "hash",
        "id",
        "isinstance",
        "issubclass",
        "ord",
        "range",
        "divmod",
        "pow",
    }
)

#: Builtins that pass their arguments' taint through to the result.
PROPAGATING_BUILTINS = frozenset(
    {
        "str",
        "repr",
        "format",
        "bytes",
        "list",
        "tuple",
        "set",
        "frozenset",
        "dict",
        "sorted",
        "reversed",
        "enumerate",
        "zip",
        "map",
        "filter",
        "min",
        "max",
        "next",
        "iter",
        "getattr",
        "vars",
    }
)
