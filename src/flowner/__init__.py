"""Corpus engineering and evaluation toolkit for nested NER over
scientific articles describing bioinformatics workflows."""

from .model import (Corpus, Document, Entity, EntityLabel, Provenance, Span,
                    Violation, validate_corpus, validate_document)
from .standoff import (DuplicateId, MalformedLine, OffsetOutOfRange,
                       StandoffParseError, SurfaceMismatch, parse_standoff,
                       serialize_standoff)
from .stats import StatsReport, corpus_stats
from .schema import (BIOTOFLOW, SOFTCITE_QUALIFIERS, ConversionReport,
                     MappingRule, MappingTable, SchemaDef, UnknownSourceLabel,
                     convert_corpus, default_softcite_table)
from .evaluation import (DocSetMismatch, EntityRef, LabelScore, MatchMode,
                         MatchReport, entities_compatible, macro_average,
                         match_document, score)
from .experiment import (AggregateTable, CorpusTooSmall, EmptyResults,
                         MixedModes, RunResult, SplitManifest, aggregate,
                         make_splits, render_table, split_sizes)
from .gazetteer import (BuildOptions, Gazetteer, MalformedDump, VocabEntry,
                        build_gazetteer, export_vocab, ingest, vocab_lines)
from .tagger import (DuplicateDocId, ExternalPredictions, FusionConfig,
                     FusionSource, MalformedPrediction, MissingPrediction,
                     RuleSet, TaggerPredictor, default_ruleset, fuse,
                     provenance_counts, silver_annotate, tag)

__version__ = "0.1.0"
