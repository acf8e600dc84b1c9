"""Closed forms of Upsilon(p^r) applied to the base vectors A_p(r, f) and
B_p(r, 1): a scalar times a primitive image vector.  Only the tests read
them, as an independent check of the base vectors in cuspidal.generators."""


def g_scalar(p: int, r: int, f: int) -> int:
    """g_p(r, f) with Upsilon(p^r) * A_p(r,f) = g * (primitive image vector)."""
    if f == 0:
        return 1
    if f == 1:
        return p ** (r - 1) * (p * p - 1)
    if f == 2:
        return p ** (r - 1)
    return p ** ((r + 1 - f) // 2)


def image_vector_A(p: int, r: int, f: int) -> tuple:
    """The primitive vector with Upsilon(p^r) * A_p(r,f) = g_p(r,f) * it."""
    if f == 0:
        return (p, -1) + (0,) * (r - 1)
    if f == 1:
        return (1,) + (0,) * r
    if f == 2:
        if r % 2 == 0:
            return (1,) + (0,) * (r - 1) + (-1,)
        return (0, 1) + (0,) * (r - 2) + (-1,)
    if (r - f) % 2 == 0:
        j = (r - f) // 2
        return (p, -1) + (0,) * (r - 3 - j) + (1, -p) + (0,) * j
    j = (r + 1 - f) // 2
    return (0,) * j + (p, -1) + (0,) * (r - 3 - j) + (1, -p)


def base_vector_image(kind: str, p: int, r: int, f: int):
    """(scalar, primitive vector) with Upsilon * base_vector = scalar * vector."""
    if kind == "A":
        return g_scalar(p, r, f), image_vector_A(p, r, f)
    if kind == "B":
        if f == 1:
            return p ** (r - 1) * (p + 1), (1, -1) + (0,) * (r - 1)
        return g_scalar(p, r, f), image_vector_A(p, r, f)
    raise ValueError(f"no closed image table for kind {kind!r}")
