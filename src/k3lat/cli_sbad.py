"""`k3lat sbad`: the Picard-lattice extension tests."""

from .cli import _rational
from .errors import UsageError


def sbad_witness(args):
    from .lattice import determinant
    from .sbad import is_sbad_extension, read_witness_file

    witness = read_witness_file(args.gram)
    verdict = is_sbad_extension(witness)
    p = {"det_s": determinant(witness.s), "det_s1": determinant(witness.s1),
         "pairings": list(witness.pairings), "d_norm": witness.d_norm, "s_bad": verdict}
    return p, lambda: [f"det S = {p['det_s']}",
                       f"det S1 = {p['det_s1']}",
                       f"|det S1| = {abs(p['det_s1'])}, 2|det S| = {2 * abs(p['det_s'])}",
                       f"S-bad witness: {'yes' if verdict else 'no'}"]


def sbad_polarized(args):
    from .sbad import normalize_degree, polarized_bad, projected_norm

    if args.n <= 0:
        raise UsageError("polarization degree must be positive")
    verdict = polarized_bad(args.n, args.dnorm, args.k)
    p = {"n": args.n, "d_norm": args.dnorm, "k": args.k,
         "k_normalized": normalize_degree(args.n, args.k),
         "projected_norm": _rational(projected_norm(args.n, args.dnorm, args.k), 2 * args.n),
         "bad": verdict}
    return p, lambda: [f"n = {args.n}, k = {args.k} "
                       f"(normalized {p['k_normalized']}), d = {args.dnorm}",
                       f"projected norm d - k^2/2n = {p['projected_norm']}",
                       f"-2 <= {p['projected_norm']} < 0: {'yes' if verdict else 'no'}"]
