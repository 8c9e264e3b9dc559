"""Linear codes over the chain ring GF(q)[u]/(u^e).

Exact arithmetic, standard forms, Euclidean and Hermitian duality,
closed-form counts with brute-force censuses to back them, a constructive
generator for Hermitian self-dual codes, and the per-divisor
decomposition of group algebras with cyclic Sylow p-subgroup into chain
rings that counts quasi-abelian codes.
"""
from .gf import (DEFAULT_MAX_ORDER, Field, canonical_modulus,
                 factor_prime_power, field_make, is_irreducible, is_prime)
from .chainring import ChainRing, ChainRingElement, chain_ring, ring_over
from .codes import (EUCLIDEAN, HERMITIAN, FieldCode, LinearCode, StandardForm,
                    code_from_json, code_to_json, dumps_code,
                    field_code_from_json, field_rref, inner_product,
                    loads_code)
from .counting import (count_esd, count_hsd, count_linear, gaussian_binomial,
                       sigma_e, sigma_h)
from .census import (Census, DEFAULT_ORACLE_BOUND, code_fingerprint,
                     enumerate_field_self_dual,
                     enumerate_hsd_constructive, enumerate_sd_standard_forms,
                     enumerate_self_dual, enumerate_submodules,
                     hermitian_sd_extend)
from .quasiabelian import (AbelianGroup, DecompositionReport, DivisorFactor,
                           GroupAlgebraElement, algebra_elements,
                           chain_to_cyclic, coset_join, coset_representatives,
                           coset_split, count_qa, count_qa_esd, count_qa_hsd,
                           cyclic_to_chain, decompose, divisors,
                           is_good_pair, is_oddly_good_pair,
                           multiplicative_order, subgroup_closure)

__all__ = [
    "DEFAULT_MAX_ORDER", "Field", "canonical_modulus",
    "factor_prime_power", "field_make", "is_irreducible", "is_prime",
    "ChainRing", "ChainRingElement", "chain_ring", "ring_over",
    "EUCLIDEAN", "HERMITIAN", "FieldCode", "LinearCode", "StandardForm",
    "code_from_json", "code_to_json", "dumps_code", "field_code_from_json",
    "field_rref", "inner_product", "loads_code",
    "count_esd", "count_hsd", "count_linear",
    "gaussian_binomial", "sigma_e", "sigma_h",
    "Census", "DEFAULT_ORACLE_BOUND", "code_fingerprint",
    "enumerate_field_self_dual",
    "enumerate_hsd_constructive", "enumerate_sd_standard_forms",
    "enumerate_self_dual", "enumerate_submodules", "hermitian_sd_extend",
    "AbelianGroup", "DecompositionReport", "DivisorFactor",
    "GroupAlgebraElement", "algebra_elements", "chain_to_cyclic",
    "coset_join", "coset_representatives", "coset_split", "count_qa",
    "count_qa_esd", "count_qa_hsd", "cyclic_to_chain", "decompose",
    "divisors", "is_good_pair", "is_oddly_good_pair", "multiplicative_order",
    "subgroup_closure",
]
