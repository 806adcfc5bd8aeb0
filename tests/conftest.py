import pytest

from multsub import multgroup as mg
from multsub import sieve
from multsub.partitions import conjugate_parts
from multsub.pgroup import PGroupType, subgroup_count


@pytest.fixture(scope="session")
def table_10k():
    return sieve.build(10**4)


@pytest.fixture(scope="session")
def table_100k():
    return sieve.build(10**5)


@pytest.fixture(scope="session")
def table_1m():
    return sieve.build(10**6)


def primary_matches_definition(columns, definitional, decomposition) -> bool:
    """Whether the primary decomposition's columns are the omega_bar vectors, with
    the same primes in the same order, and its partitions are their conjugates."""
    return (list(columns.items()) == list(definitional.items())
            and list(decomposition) == list(definitional)
            and all(decomposition[p].parts == conjugate_parts(a) for p, a in definitional.items()))


@pytest.fixture(scope="session")
def per_n_100k(table_100k):
    """One walk over 1 <= n <= 10^5, one factorization per n, for every check
    that needs the per-n structure by both routes.

    Keeps the per-n counts by `subgroup_counts` ("G" and "I", indexed by n, with
    (1, 1) at n = 0 as in the count arrays), the failing n of each check
    ("failures") and the set of Sylow column shapes ("shapes")."""
    t = table_100k
    out = {"G": [1], "I": [1], "shapes": set(), "failures": {
        "structure": [],  # sylow_columns / sylow_decomposition against the omega_bar vectors
        "definitional": [],  # subgroup_counts against definitional_counts
        "phi_identity": [],  # prod_p p^|alpha_p| = phi(n)
        "i_bound": [],  # 2^omega(phi(n)) <= I(n) <= 2^Omega(phi(n))
        "i_le_g": [],
        "single_power": [],  # |alpha_p| = 1 gives two subgroups
        "lambda": [],  # lambda_p(n) is the exponent of p in carmichael_lambda(n)
        "lambda_bound": [],  # lambda_p(n) <= max(nu_p(n), sum_j omega_{p^j}(n))
    }}
    bad = out["failures"]
    cyclic_p = {}  # p -> subgroup count of Z_p, the same at every n
    for n in range(1, 10**5 + 1):
        fact = mg.factorize(n)
        cols = mg.sylow_columns(n, fact)
        defcols = mg.definitional_columns(n, fact)
        dec = mg.sylow_decomposition(n, fact)
        g, i = mg.subgroup_counts(n, cols)
        if not primary_matches_definition(cols, defcols, dec):
            bad["structure"].append(n)
        if mg.definitional_counts(n, defcols) != (g, i):
            bad["definitional"].append(n)
        out["shapes"].update(cols.values())
        lam = mg.carmichael_lambda(n, fact)
        prod = 1
        for p, alpha in dec.items():
            prod *= p**alpha.size
            if alpha.size == 1:
                if p not in cyclic_p:
                    cyclic_p[p] = subgroup_count(PGroupType(p, alpha))
                if cyclic_p[p] != 2:
                    bad["single_power"].append((n, p))
            e = 0
            m = lam
            while m % p == 0:
                m //= p
                e += 1
            lam_p = len(defcols[p])  # the omega_bar vector runs to lambda_p(n, p, fact)
            if lam_p != e:
                bad["lambda"].append((n, p))
            nu = next((ex for q, ex in fact if q == p), 0)
            wsum = sum(mg.omega_q(n, p**j, fact) for j in range(1, lam_p + 1))
            if lam_p > max(nu, wsum):
                bad["lambda_bound"].append((n, p))
        if prod != (int(t.phi[n]) if n >= 2 else 1):
            bad["phi_identity"].append(n)
        if n >= 2 and not 2 ** int(t.omega_phi[n]) <= i <= 2 ** int(t.bigomega_phi[n]):
            bad["i_bound"].append(n)
        if i > g:
            bad["i_le_g"].append(n)
        out["G"].append(g)
        out["I"].append(i)
    return out
