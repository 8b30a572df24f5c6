#include "programs.hpp"

#include <sstream>
#include <unordered_map>
#include <utility>

namespace perfbench {

namespace {

template <typename... Parts>
std::string cat(const Parts&... parts) {
  std::ostringstream out;
  (out << ... << parts);
  return out.str();
}

/// Row-major 2-D helper over a flat reference array (1-based indices).
struct Grid {
  std::vector<double>& data;
  int cols;
  double& at(int i, int j) {
    return data[static_cast<std::size_t>(i - 1) * cols + (j - 1)];
  }
};

std::vector<double> zeros(std::size_t n) { return std::vector<double>(n, 0.0); }

Shape make(std::string label, std::string text,
           std::vector<std::string> arrays, std::uint64_t points,
           std::vector<std::vector<double>> data) {
  Shape shape;
  shape.label = std::move(label);
  shape.text = std::move(text);
  shape.arrays = std::move(arrays);
  shape.points = points;
  auto ref = std::make_shared<Reference>();
  ref->arrays = std::move(data);
  shape.reference = std::move(ref);
  return shape;
}

Shape reject(std::string label, std::string text, std::string phase) {
  Shape shape;
  shape.label = std::move(label);
  shape.text = std::move(text);
  shape.expect_phase = std::move(phase);
  return shape;
}

bool is_name_char(char ch) {
  return (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
         (ch >= '0' && ch <= '9') || ch == '_';
}

std::string base36(std::uint64_t v) {
  static constexpr char kDigits[] = "0123456789abcdefghijklmnopqrstuvwxyz";
  std::string out;
  do {
    out.insert(out.begin(), kDigits[v % 36]);
    v /= 36;
  } while (v != 0);
  return out;
}

/// Expands a template. `name_of` maps a placeholder to its identifier;
/// `space`/`newline` produce the whitespace for each space/newline.
template <typename NameOf, typename Space, typename Newline>
std::string expand(const std::string& text, NameOf name_of, Space space,
                   Newline newline) {
  std::string out;
  out.reserve(text.size() * 2);
  for (std::size_t p = 0; p < text.size();) {
    const char ch = text[p];
    if (ch == '$') {
      std::size_t end = p + 1;
      while (end < text.size() && is_name_char(text[end])) ++end;
      out += name_of(text.substr(p + 1, end - p - 1));
      p = end;
      continue;
    }
    if (ch == ' ') {
      out += space();
    } else if (ch == '\n') {
      out += newline();
    } else {
      out += ch;
    }
    ++p;
  }
  return out;
}

Op op_from(const Shape& shape, std::string source,
           std::vector<std::string> array_names) {
  Op op;
  op.label = shape.label;
  op.source = std::move(source);
  op.expect_phase = shape.expect_phase;
  op.over_cap = shape.over_cap;
  op.points = shape.points;
  op.array_names = std::move(array_names);
  op.reference = shape.reference;
  return op;
}

}  // namespace

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

Shape matmul(int m, int k, int n, int a, int b) {
  std::vector<double> A = zeros(static_cast<std::size_t>(m) * k);
  std::vector<double> B = zeros(static_cast<std::size_t>(k) * n);
  std::vector<double> C = zeros(static_cast<std::size_t>(m) * n);
  std::vector<double> S = zeros(1);
  Grid ga{A, k}, gb{B, n}, gc{C, n};
  for (int i = 1; i <= m; ++i)
    for (int kk = 1; kk <= k; ++kk) ga.at(i, kk) = i + a * kk;
  for (int kk = 1; kk <= k; ++kk)
    for (int j = 1; j <= n; ++j) gb.at(kk, j) = kk - b * j;
  for (int i = 1; i <= m; ++i)
    for (int j = 1; j <= n; ++j) {
      double sum = 0;
      for (int kk = 1; kk <= k; ++kk) sum += ga.at(i, kk) * gb.at(kk, j);
      gc.at(i, j) = sum;
    }
  for (int j = 1; j <= n; ++j) S[0] += gc.at(m, j);
  const std::uint64_t points =
      static_cast<std::uint64_t>(m) * k + static_cast<std::uint64_t>(k) * n +
      static_cast<std::uint64_t>(m) * n * k + n;
  return make(
      cat("matmul ", m, "x", k, "x", n),
      cat("array $A[", m, "][", k, "]; array $B[", k, "][", n,
          "]; array $C[", m, "][", n, "]; array $S[1];\n",
          "doall $i = 1, ", m, " { doall $k = 1, ", k,
          " { $A[$i][$k] = $i + ", a, " * $k; } }\n",
          "doall $k = 1, ", k, " { doall $j = 1, ", n,
          " { $B[$k][$j] = $k - ", b, " * $j; } }\n",
          "doall $i = 1, ", m, " {\n doall $j = 1, ", n,
          " {\n $C[$i][$j] = 0;\n do $k = 1, ", k,
          " { $C[$i][$j] = $C[$i][$j] + $A[$i][$k] * $B[$k][$j]; }\n }\n}\n",
          "do $j = 1, ", n, " { $S[1] = $S[1] + $C[", m, "][$j]; }\n"),
      {"A", "B", "C", "S"}, points,
      {std::move(A), std::move(B), std::move(C), std::move(S)});
}

Shape stencil(int n, int c) {
  std::vector<double> in = zeros(n), out = zeros(n), s = zeros(1);
  for (int i = 1; i <= n; ++i) in[i - 1] = static_cast<double>(i) * i + c;
  for (int i = 2; i <= n - 1; ++i) out[i - 1] = in[i - 2] + in[i - 1] + in[i];
  for (int i = 1; i <= n; ++i) s[0] += out[i - 1];
  return make(cat("stencil ", n),
              cat("array $IN[", n, "]; array $OUT[", n, "]; array $S[1];\n",
                  "doall $i = 1, ", n, " { $IN[$i] = $i * $i + ", c, "; }\n",
                  "doall $i = 2, ", n - 1,
                  " { $OUT[$i] = $IN[$i - 1] + $IN[$i] + $IN[$i + 1]; }\n",
                  "do $i = 1, ", n, " { $S[1] = $S[1] + $OUT[$i]; }\n"),
              {"IN", "OUT", "S"}, static_cast<std::uint64_t>(3 * n - 2),
              {std::move(in), std::move(out), std::move(s)});
}

Shape triangle(int rows, int c) {
  std::vector<double> L = zeros(static_cast<std::size_t>(rows) * rows);
  Grid g{L, rows};
  for (int i = 1; i <= rows; ++i)
    for (int j = 1; j <= i; ++j) g.at(i, j) = 2.0 * i * c + j;
  return make(cat("triangle ", rows),
              cat("array $L[", rows, "][", rows, "];\n",
                  "doall $i = 1, ", rows,
                  " { doall $j = 1, $i { $L[$i][$j] = $i * ", c,
                  " + $j; } }\n",
                  "doall $i = 1, ", rows,
                  " { doall $j = 1, $i { $L[$i][$j] = $L[$i][$j] * 2 - $j; "
                  "} }\n"),
              {"L"},
              static_cast<std::uint64_t>(rows) * (rows + 1),
              {std::move(L)});
}

Shape transpose(int n, int c) {
  std::vector<double> T = zeros(static_cast<std::size_t>(n) * n);
  std::vector<double> U = zeros(static_cast<std::size_t>(n) * n);
  Grid gt{T, n}, gu{U, n};
  for (int i = 1; i <= n; ++i)
    for (int j = 1; j <= n; ++j) gt.at(j, i) = static_cast<double>(i) * c + j;
  for (int i = 1; i <= n; ++i)
    for (int j = 1; j <= n; ++j) gu.at(i, j) = gt.at(j, i) + i;
  return make(cat("transpose ", n, "x", n),
              cat("array $T[", n, "][", n, "]; array $U[", n, "][", n,
                  "];\n", "doall $i = 1, ", n, " { doall $j = 1, ", n,
                  " { $T[$j][$i] = $i * ", c, " + $j; } }\n",
                  "doall $i = 1, ", n, " { doall $j = 1, ", n,
                  " { $U[$i][$j] = $T[$j][$i] + $i; } }\n"),
              {"T", "U"}, 2ull * n * n, {std::move(T), std::move(U)});
}

Shape scalar_fallback(int n, int c) {
  std::vector<double> X = zeros(static_cast<std::size_t>(n) * n);
  std::vector<double> Y = zeros(static_cast<std::size_t>(n) * n);
  Grid gx{X, n}, gy{Y, n};
  for (int i = 1; i <= n; ++i)
    for (int j = 1; j <= n; ++j) {
      gx.at(i, j) = i + static_cast<double>(c) * j;
      gy.at(i, j) = gx.at(i, j) * 2 + 1;
    }
  return make(cat("scalar-fallback ", n, "x", n),
              cat("array $X[", n, "][", n, "]; array $Y[", n, "][", n,
                  "]; scalar $s;\n", "doall $i = 1, ", n,
                  " { doall $j = 1, ", n, " { $X[$i][$j] = $i + ", c,
                  " * $j; } }\n", "doall $i = 1, ", n, " { doall $j = 1, ",
                  n, " { $s = $X[$i][$j]; $Y[$i][$j] = $s * 2 + 1; } }\n"),
              {"X", "Y"}, 2ull * n * n, {std::move(X), std::move(Y)});
}

Shape cube(int p, int q, int r, int c) {
  std::vector<double> V = zeros(static_cast<std::size_t>(p) * q * r);
  for (int i = 1; i <= p; ++i)
    for (int j = 1; j <= q; ++j)
      for (int k = 1; k <= r; ++k)
        V[(static_cast<std::size_t>(i - 1) * q + (j - 1)) * r + (k - 1)] =
            static_cast<double>(i) * j + c * k;
  return make(cat("cube ", p, "x", q, "x", r),
              cat("array $V[", p, "][", q, "][", r, "];\n", "doall $i = 1, ",
                  p, " { doall $j = 1, ", q, " { doall $k = 1, ", r,
                  " { $V[$i][$j][$k] = $i * $j + ", c, " * $k; } } }\n"),
              {"V"}, static_cast<std::uint64_t>(p) * q * r, {std::move(V)});
}

Shape strided(int n, int c) {
  std::vector<double> W = zeros(n);
  std::uint64_t points = 0;
  for (int i = 1; i <= n; i += 3) {
    W[i - 1] = static_cast<double>(i) * c;
    ++points;
  }
  return make(cat("strided ", n),
              cat("array $W[", n, "];\n", "doall $i = 1, ", n,
                  ", 3 { $W[$i] = $i * ", c, "; }\n"),
              {"W"}, points, {std::move(W)});
}

Shape prefix(int n, int c) {
  std::vector<double> P = zeros(n), Q = zeros(n);
  for (int i = 1; i <= n; ++i) Q[i - 1] = i + c;
  for (int i = 2; i <= n; ++i) P[i - 1] = P[i - 2] + Q[i - 1];
  return make(cat("prefix ", n),
              cat("array $P[", n, "]; array $Q[", n, "];\n",
                  "doall $i = 1, ", n, " { $Q[$i] = $i + ", c, "; }\n",
                  "do $i = 2, ", n, " { $P[$i] = $P[$i - 1] + $Q[$i]; }\n"),
              {"P", "Q"}, static_cast<std::uint64_t>(2 * n - 1),
              {std::move(P), std::move(Q)});
}

Shape bulk(int arrays, int rows, int cols, int c) {
  static const char* const kNames[] = {"D", "E", "F", "G"};
  std::string decls, body;
  std::vector<std::string> names;
  std::vector<std::vector<double>> data;
  for (int t = 0; t < arrays; ++t) {
    const std::string a = cat("$", kNames[t]);
    const int ct = c + t;
    decls += cat("array ", a, "[", rows, "][", cols, "]; ");
    body += cat("doall $i = 1, ", rows, " { ", a, "[$i][1] = $i * ", ct,
                "; }\n", "do $j = 2, 8 { ", a, "[1][$j] = ", a,
                "[1][$j - 1] + 1; }\n");
    names.push_back(kNames[t]);
    std::vector<double> d = zeros(static_cast<std::size_t>(rows) * cols);
    Grid g{d, cols};
    for (int i = 1; i <= rows; ++i) g.at(i, 1) = static_cast<double>(i) * ct;
    for (int j = 2; j <= 8; ++j) g.at(1, j) = g.at(1, j - 1) + 1;
    data.push_back(std::move(d));
  }
  decls.back() = '\n';
  return make(cat("bulk ", arrays, "x", rows, "x", cols),
              decls + body, std::move(names),
              static_cast<std::uint64_t>(arrays) * (rows + 7),
              std::move(data));
}

Shape over_cap() {
  std::vector<double> L = zeros(1024ull * 1024);
  L[0] = 1;
  L[1024] = 2;
  Shape shape = make("over-cap 1024x1024",
                     "array $L[1024][1024];\n"
                     "doall $i = 1, 2 { $L[$i][1] = $i; }\n",
                     {"L"}, 2, {std::move(L)});
  shape.over_cap = true;
  return shape;
}

std::vector<Shape> reject_shapes() {
  return {
      reject("syntax error", "array $A[16];\ndoall $i = 1, 16 { $A[$i] = $i }\n",
             "parse"),
      reject("div_zero.bad",
             "array $A[8]; array $B[8];\n"
             "doall $i = 1, 8 { $B[$i] = $A[fdiv($i, 0) + 1]; }\n",
             "verify"),
      reject("induction-assign",
             "array $A[4];\ndoall $i = 1, 4 { $i = 3; $A[$i] = 1; }\n",
             "verify"),
      reject("overflow.bad",
             "array $A[4];\ndoall $i = 1, 4000000000 {\n"
             "doall $j = 1, 4000000000 { $A[1] = 0; } }\n",
             "lint"),
      reject("racy_scalar.bad",
             "array $A[32]; scalar $s;\n"
             "doall $i = 1, 32 { $s = $s + $A[$i]; $A[$i] = $s; }\n",
             "lint"),
      reject("histogram.racy",
             "array $H[4]; array $X[64];\n"
             "doall $i = 1, 64 { $H[1] = $H[1] + $X[$i]; }\n",
             "race"),
      reject("recurrence.racy",
             "array $A[64];\ndoall $i = 2, 64 { $A[$i] = $A[$i - 1] + 1; }\n",
             "race"),
  };
}

Op verbatim(const Shape& shape) {
  std::string source = expand(
      shape.text, [](const std::string& p) { return p; },
      [] { return std::string(" "); }, [] { return std::string("\n"); });
  return op_from(shape, std::move(source), shape.arrays);
}

Op renamed(const Shape& shape, std::uint64_t unique, Rng& rng) {
  static const char* const kSpaces[] = {" ", "  ", "\t", " \n ", "\n\t"};
  static const char* const kNewlines[] = {"\n", "\n\n", "\n  ", " \n",
                                          "\n// generated\n"};
  const std::string tag = base36(unique);
  std::unordered_map<std::string, std::string> names;
  auto name_of = [&](const std::string& placeholder) {
    auto it = names.find(placeholder);
    if (it != names.end()) return it->second;
    std::string prefix;
    const std::uint64_t len = 1 + rng.below(3);
    for (std::uint64_t k = 0; k < len; ++k) {
      prefix += static_cast<char>('a' + rng.below(26));
    }
    std::string name = prefix + "_" + placeholder + "_" + tag;
    names.emplace(placeholder, name);
    return name;
  };
  std::string source = expand(
      shape.text, name_of,
      [&] { return std::string(kSpaces[rng.below(std::size(kSpaces))]); },
      [&] {
        return std::string(kNewlines[rng.below(std::size(kNewlines))]);
      });
  std::vector<std::string> array_names;
  for (const std::string& a : shape.arrays) array_names.push_back(name_of(a));
  return op_from(shape, std::move(source), std::move(array_names));
}

std::string compare_arrays(
    const Op& op, const std::vector<std::string>& names,
    const std::vector<const std::vector<double>*>& data) {
  if (op.reference == nullptr) return "no reference for " + op.label;
  const auto& expected = op.reference->arrays;
  if (names.size() != op.array_names.size() ||
      data.size() != expected.size()) {
    return cat(op.label, ": ", names.size(), " arrays returned, ",
               expected.size(), " expected");
  }
  for (std::size_t a = 0; a < expected.size(); ++a) {
    if (names[a] != op.array_names[a]) {
      return cat(op.label, ": array ", a, " is '", names[a], "', expected '",
                 op.array_names[a], "'");
    }
    const std::vector<double>& got = *data[a];
    if (got.size() != expected[a].size()) {
      return cat(op.label, ": array ", names[a], " has ", got.size(),
                 " elements, expected ", expected[a].size());
    }
    for (std::size_t e = 0; e < got.size(); ++e) {
      if (got[e] != expected[a][e]) {
        return cat(op.label, ": ", names[a], "[flat ", e, "] = ", got[e],
                   ", expected ", expected[a][e]);
      }
    }
  }
  return {};
}

}  // namespace perfbench
