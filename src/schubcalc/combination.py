"""The immutable sparse linear combination shared by every class type.

A class is a dict `terms` from canonical basis keys to nonzero
coefficients, on a fixed `space`. The subclasses are `GrassmannClass`,
`FlagClass`, `HalvingClass`, and, with no space, `SchurExpansion` and the
oracles' `SparsePolynomial` (in `selftest`). They say what a key is and
how two classes multiply; everything linear lives here once:

- `_key(space, key)` validates one key and returns its canonical form;
- `_rank(key)` is the degree that orders terms for output;
- `_scalars` are the coefficient types `*` scales by, `_zero` their zero;
- `_symbol` names a basis class in `repr`;
- `_product(other)` multiplies through the ring's module-level kernel;
- `_product_within(other, top)` is the same product when only its terms
  that can pair with the basis class keyed `top` are read: a Grassmannian
  class builds only those, and the other types build the whole product.

Every ring keys its unit class `()`: the empty partition, the identity
permutation stripped of its fixed points, the constant monomial. The public
constructor validates every key. Results of arithmetic and of the product
kernels are built with `_make`, which trusts its keys because they come out
of canonical keys already.

A class type on a space with a point class also says, by
`_dual_key(space, key)`, which basis class pairs to 1 with a given one
(Poincare duality: the top coefficient of s_u s_v is 1 when v is the dual
key of u and 0 otherwise). `intersection_number` reads a count from it.

`decimal_text` writes a coefficient exactly, however many digits it has,
for output and for error messages alike. `Record` is the immutable,
field-compared base of the descriptors and problem records; `COMPLEX` is
the `kind` of the complex ones (the space protocol of `halving`).
"""

from fractions import Fraction

from .errors import SpaceMismatch

# str() of an int refuses more than sys.get_int_max_str_digits() digits
# (4300 by default since 3.11); decimal_text writes pieces far below that.
_PIECE_DIGITS = 1000
_PIECE = 10 ** _PIECE_DIGITS

COMPLEX = "complex"


def decimal_text(x):
    """The exact decimal form of an int or a Fraction (`-?N` or `-?N/D`)."""
    if isinstance(x, Fraction):
        if x.denominator != 1:
            return f"{decimal_text(x.numerator)}/{decimal_text(x.denominator)}"
        x = x.numerator
    if x < 0:
        return "-" + decimal_text(-x)
    pieces = []
    while x >= _PIECE:
        x, r = divmod(x, _PIECE)
        pieces.append(f"{r:0{_PIECE_DIGITS}d}")
    pieces.append(str(x))
    return "".join(reversed(pieces))


class Record:
    """An immutable record of the fields named in `_fields`, compared,
    hashed and written by them in order, as a frozen dataclass is."""

    __slots__ = ()
    _fields = ()

    def __init__(self, *values):
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class SparseCombination:
    """Immutable finite combination of basis classes on one space."""

    __slots__ = ("space", "terms")
    _scalars = (int,)
    _zero = 0
    _symbol = "s"

    def __init__(self, space, terms):
        clean = {}
        for key, c in terms.items():
            key = self._key(space, key)
            clean[key] = clean.get(key, self._zero) + c
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "terms", {k: c for k, c in clean.items() if c})

    @classmethod
    def _make(cls, space, terms):
        """Build from canonical keys without validating them; zeros dropped."""
        self = object.__new__(cls)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "terms", {k: c for k, c in terms.items() if c})
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def zero(cls, space=None):
        return cls._make(space, {})

    @classmethod
    def unit(cls, space=None):
        return cls._make(space, {(): cls._zero + 1})

    @classmethod
    def basis(cls, space, key):
        return cls(space, {key: 1})

    def coefficient(self, key):
        return self.terms.get(self._key(self.space, key), self._zero)

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def sorted_terms(self):
        rank = self._rank
        return sorted(self.terms.items(), key=lambda t: (rank(t[0]), t[0]))

    def _cheaper_than(self, other):
        """True when self has fewer terms than other, or as many and a lower
        top degree: the cheaper factor to take term by term in a product."""
        if len(self.terms) != len(other.terms):
            return len(self.terms) < len(other.terms)
        top = max(map(self._rank, self.terms), default=0)
        return top < max(map(other._rank, other.terms), default=0)

    def _check_space(self, other):
        if self.space != other.space:
            raise SpaceMismatch(f"{self.space} vs {other.space}")

    def __add__(self, other):
        self._check_space(other)
        terms = dict(self.terms)
        for key, c in other.terms.items():
            terms[key] = terms.get(key, 0) + c
        return self._make(self.space, terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._make(self.space, {k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, self._scalars):
            return self._make(self.space, {k: c * other for k, c in self.terms.items()})
        return self._product(other)

    __rmul__ = __mul__

    def _product_within(self, other, top):
        """self * other, of which only the terms that pair with the basis
        class keyed `top` will be read (all of them when top is None)."""
        return self._product(other)

    def __pow__(self, m):
        if m < 0:
            raise ValueError("negative power")
        if m == 0:
            return self.unit(self.space)
        out = self
        for _ in range(m - 1):
            out = out._product(self)
        return out

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.space == other.space and self.terms == other.terms

    def __hash__(self):
        return hash((self.space, frozenset(self.terms.items())))

    def __repr__(self):
        bits = []
        for key, c in self.sorted_terms():
            name = f"{self._symbol}{list(key)}"
            bits.append(name if c == 1 else f"{decimal_text(c)}*{name}")
        text = " + ".join(bits) or "0"
        return text if self.space is None else f"<{text} on {self.space}>"


def multiply_copies(factors, product=None, top=None):
    """`product` times c copies of each class a of the (a, c) in `factors`,
    one copy at a time and in order; a `product` of None starts from the
    first copy, and stays None when there is none. Every product is
    `_product_within(a, top)`: with a basis key `top`, the caller reads
    only what the product contributes to the pairing with s_top."""
    for a, c in factors:
        for _ in range(c):
            product = a if product is None else product._product_within(a, top)
    return product


def intersection_number(factors):
    """The point-class coefficient of the product of a^c over the
    (a, degree, c) in `factors`: homogeneous classes of positive degree,
    at least one, whose degrees fill the dimension.

    By Poincare duality the top coefficient of X Y is the sum of X_u Y_u*,
    u* the dual key of u. So with X the product of c // 2 copies of each
    a, and Y = X times one more copy of each a of odd c, the count is
    <X, Y>, and the copies in X are multiplied once instead of twice. The
    split is taken when X carries at least a third of the dimension (its
    degree is at least that of the odd copies). Otherwise one copy of the
    top condition, the first of highest degree, is left out, and the count
    is <R, top> for R the product of every other copy: R's coefficient at
    the dual key of top = s_u. Only the terms of R's products that can
    still reach that key are needed (`_product_within(a, u)`; on a
    Grassmannian, the shapes inside it); with nothing left, top's
    point-class coefficient is read. Copies are multiplied in the order of
    `factors`.
    """
    half = odd = 0
    for _, degree, c in factors:
        half += degree * (c // 2)
        odd += degree * (c % 2)
    if half < odd:
        j = max(range(len(factors)), key=lambda i: factors[i][1])
        top = factors[j][0]
        u = next(iter(top.terms)) if len(top.terms) == 1 else None
        rest = multiply_copies(
            [(a, c - (i == j)) for i, (a, _, c) in enumerate(factors)], top=u
        )
        if rest is None:
            return top.terms.get(top._dual_key(top.space, ()), 0)
        return _pair(rest, top)
    x = multiply_copies([(a, c // 2) for a, _, c in factors])
    return _pair(x, multiply_copies([(a, c % 2) for a, _, c in factors], x))


def _pair(x, y):
    """The sum of x_u y_u* over the terms of the class with fewer terms:
    the point-class coefficient of x y when their degrees fill the
    dimension (u** = u, so either class may be read)."""
    if len(y.terms) < len(x.terms):
        x, y = y, x
    dual, space, get = x._dual_key, x.space, y.terms.get
    return sum(c * get(dual(space, u), 0) for u, c in x.terms.items())
