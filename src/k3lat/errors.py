"""Exception types shared across the package."""


class LatticeError(ValueError):
    """Base class for domain errors on lattice inputs."""


class DegenerateLatticeError(LatticeError):
    """Operation requires det != 0."""


class NotPositiveDefiniteError(LatticeError):
    """Gram matrix is not positive definite."""


class IndefiniteLatticeError(LatticeError):
    """Operation requires a definite lattice."""


class NonPrimitiveSublatticeError(LatticeError):
    """Sublattice is strictly contained in its saturation."""


class WrongSignatureError(LatticeError):
    """Lattice has the wrong signature for this operation."""


class ZeroVectorError(LatticeError):
    """Vector argument must be nonzero."""


class NormOutOfRangeError(LatticeError):
    """Norm argument outside the admissible range."""


class DegenerateExtensionError(LatticeError):
    """Bordered extension lattice is degenerate (det 0)."""


class UsageError(ValueError):
    """Command-line argument outside its documented range."""


class GramFileError(ValueError):
    """Malformed Gram matrix file."""


class SpecSyntaxError(ValueError):
    """Lattice-spec expression failed to parse.

    ``offset`` is the byte offset of the failure in the input text.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownStandardLatticeError(SpecSyntaxError):
    """II(p,q) pair is not one of the provided standard lattices."""
