"""Finite permutation-group engine and verification harness.

Computes the invariants of finite groups tied to iterated commutator
(Engel) sets - Fitting and generalized Fitting series, insoluble length,
inverted-element sets, normal-closure descent - and exhaustively checks
the structural statements relating them over corpora of small groups.
"""

from .errors import (AutomorphismError, ConsistencyError, EngelfitError,
                     ParseError, PreconditionError, ResourceLimitError)
from .perm import Permutation, commutator, format_cycles, p_part, parse_cycles
from .group import ConjugacyClassTable, GroupHandle, close_group, generated_by
from .subgrp import (QuotientMap, center, centralizer, commutator_subgroup,
                     derived_series, derived_subgroup, is_nilpotent, is_perfect,
                     is_quasisimple, is_simple, is_soluble, is_subnormal, join,
                     lower_central_series, minimal_normals, normal_closure,
                     normal_closure_descent, normal_subgroups, quotient, socle)
from .series import (fitting_height, fitting_series, fitting_subgroup,
                     gen_fitting_height, gen_fitting_series,
                     generalized_fitting, insoluble_length, layer, odd_core,
                     soluble_radical, upper_insoluble_series)
from .engel import (AutomorphismMap, CentralizerCheck, EngelChain,
                    InvolutionReport, baer_membership,
                    centralizer_intersection_check, commutator_descent,
                    engel_chain, fixed_subgroup, holomorph_extension, inner,
                    j_set, make_automorphism)
from .zipper import SubgroupLattice, ZipperCase, all_subgroups, zipper_case
from .corpus import (CorpusEntry, builtin, get_corpus, load_corpus,
                     parse_group_file, serialize_group_file, small_std)
from .report import (GroupSummary, SuiteResult, VerdictReport, Violation,
                     parse_report, render_report, write_report)
from .suites import Caps, SUITE_ORDER, analyze_text, run_suites

__version__ = "0.1.0"
