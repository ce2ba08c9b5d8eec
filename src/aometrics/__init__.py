"""Static complexity metrics for Java/AspectJ source trees."""

from .diagnostics import Diagnostic, Severity
from .errors import (
    AnalysisError,
    ConfigNotFound,
    EmptyCorpus,
    MalformedConfig,
    NegativeWeight,
    RootNotFound,
    StrictModeParseFailure,
    TooFewVersions,
    UnknownWeightKey,
    WriteFailure,
)
from .lexer import Token, TokenKind, tokenize
from .metrics import (
    AspectMetrics,
    ClassMetrics,
    VersionMetrics,
    classify_joinpoint_categories,
    measure_version,
    waa_aspect,
    wmca_unit,
)
from .parser import (
    AdviceDecl,
    AdviceKind,
    AspectDecl,
    AttributeDecl,
    ClassDecl,
    MethodDecl,
    PointcutDecl,
    SourceUnit,
    parse_source,
    parse_unit,
)
from .pointcuts import (
    And,
    NamedRef,
    Not,
    Or,
    Primitive,
    SignaturePattern,
    extract_signature_pattern,
    parse_pointcut_expression,
)
from .report import ComparisonReport, compare_versions, render_table, write_csv, write_json, write_log
from .scanner import FileKind, ScanMode, SourceFileRef, VersionRef, classify_file, scan_corpus
from .weights import (
    JoinPointCategory,
    SpecificityLevel,
    Weight,
    WeightTable,
    default_weights,
    load_weight_overrides,
    signature_weight,
)

__version__ = "0.1.0"
