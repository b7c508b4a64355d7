"""Exception types shared across the package: one per CLI outcome, which
`cli._FAILURES` maps to its message prefix and exit code."""


class LatticeError(ValueError):
    """Domain error on a lattice input: degenerate, indefinite, of the wrong
    signature, a zero vector, a norm out of range, ..."""


class UsageError(ValueError):
    """Command-line argument outside its documented range."""


class GramFileError(ValueError):
    """Malformed Gram matrix file."""


class SpecSyntaxError(ValueError):
    """Lattice-spec expression failed to parse, or names an II(p,q) that is
    not provided.

    ``offset`` is the byte offset of the failure in the input text.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset
