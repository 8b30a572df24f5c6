// Program families the load generator sends, each with a reference result
// computed by plain C++ loops from the family's parameters — never by the
// library under test.
//
// A Shape is a program template: `$name` placeholders stand for every
// array, scalar and loop variable, and each single space or newline marks
// a place where whitespace may vary. instantiate() turns a Shape into an
// Op (one request) either verbatim (placeholders keep their own names) or
// alpha-renamed and re-spaced from a seed, which changes the source bytes
// but not the program's structure: the JIT cache key stays the same.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// Final array contents, in declaration order, row-major. All values are
/// integers, so comparison against a reply is exact.
struct Reference {
  std::vector<std::vector<double>> arrays;
};

struct Shape {
  std::string label;
  std::string text;                 ///< template with $placeholders
  std::vector<std::string> arrays;  ///< array placeholders, declaration order
  std::string expect_phase;         ///< "" = admitted; else reject phase
  bool over_cap = false;            ///< reply exceeds the daemon's frame cap
  std::uint64_t points = 0;         ///< source-level iteration points
  std::shared_ptr<const Reference> reference;  ///< null for rejects
};

/// One request as the load generator sends it.
struct Op {
  std::string label;
  std::string source;
  std::string schedule;  ///< "" = the daemon's default
  bool want_data = false;
  std::string expect_phase;
  bool over_cap = false;
  std::uint64_t points = 0;
  std::vector<std::string> array_names;  ///< declaration order
  std::shared_ptr<const Reference> reference;
};
using OpPtr = std::shared_ptr<const Op>;

/// Deterministic 64-bit generator (splitmix64): the same seed gives the
/// same stream on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, n); n > 0.
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

// ---- accepted families -----------------------------------------------------
// Every family fills its inputs from loop indices in its own doall roots,
// so results are non-zero; `c` coefficients vary the values with the seed.

/// A[M][K], B[K][N] filled; C = A*B with a sequential k loop in the body;
/// S[1] = sum of C's last row in a sequential root.
Shape matmul(int m, int k, int n, int a, int b);
/// IN[N] filled; OUT[i] = IN[i-1] + IN[i] + IN[i+1]; S[1] = sum(OUT) in a
/// sequential root.
Shape stencil(int n, int c);
/// L[R][R] lower triangle filled, then rescaled, both over doall j = 1, i.
Shape triangle(int rows, int c);
/// T[j][i] written in (i, j) order, then U[i][j] = T[j][i] + i: a pair of
/// transposed-access nests (the locality permutation reorders them).
Shape transpose(int n, int c);
/// X filled, then Y[i][j] = s * 2 + 1 with s = X[i][j]: a scalar assigned
/// from an array read, which codegen::prepare refuses, so the root runs on
/// the interpreter.
Shape scalar_fallback(int n, int c);
/// V[P][Q][R] over a three-deep doall band.
Shape cube(int p, int q, int r, int c);
/// W[N] written by a doall with step 3.
Shape strided(int n, int c);
/// Q[N] filled; P[i] = P[i-1] + Q[i] in a sequential root.
Shape prefix(int n, int c);
/// `arrays` arrays of R x C doubles, column 1 filled by a doall and row 1
/// by a sequential root: little compute, a reply of arrays * R * C * 8 bytes.
Shape bulk(int arrays, int rows, int cols, int c);
/// L[1024][1024] with two elements written: its 8 MiB reply exceeds the
/// daemon's frame cap, so the daemon never sends it.
Shape over_cap();

// ---- rejected families -----------------------------------------------------

/// Variants of examples/loops/*.{bad,racy}.loop and a syntax error, each
/// with the admission phase that refuses it (parse, verify, lint, race).
std::vector<Shape> reject_shapes();

// ---- instantiation ---------------------------------------------------------

/// Placeholders keep their own names; whitespace as written.
Op verbatim(const Shape& shape);
/// Every placeholder renamed to a fresh identifier that embeds `unique`
/// (so two ops with different `unique` never share source bytes), and
/// every whitespace run re-spaced, all drawn from `rng`.
Op renamed(const Shape& shape, std::uint64_t unique, Rng& rng);

/// Empty when `arrays` (names and contents, as the daemon replied) match
/// the op's reference exactly; otherwise what differs.
std::string compare_arrays(
    const Op& op, const std::vector<std::string>& names,
    const std::vector<const std::vector<double>*>& data);

}  // namespace perfbench
