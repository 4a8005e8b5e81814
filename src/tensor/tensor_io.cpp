#include "tensor/tensor_io.hpp"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <vector>

#include "util/error.hpp"
#include "util/faultinject.hpp"
#include "util/parallel.hpp"

namespace mdcp {

namespace {

// --- reading ----------------------------------------------------------------

[[noreturn]] void fail_line(std::size_t line_no, const std::string& what,
                            const char* line) {
  std::ostringstream os;
  os << ".tns line " << line_no << ": " << what << " in \"" << line << "\"";
  throw parse_error(os.str(), line_no);
}

// Hands out the stream's lines, NUL-terminated in place (the '\n' is
// overwritten), from one buffer refilled in 1 MiB reads. A line stays valid
// until the next call. Same line splitting as std::getline.
class LineReader {
 public:
  explicit LineReader(std::istream& in) : in_(in), buf_(kChunk + 1) {}

  char* next() {
    for (;;) {
      char* const data = buf_.data();
      if (auto* nl = static_cast<char*>(
              std::memchr(data + pos_, '\n', len_ - pos_))) {
        *nl = '\0';
        char* line = data + pos_;
        pos_ = static_cast<std::size_t>(nl - data) + 1;
        return line;
      }
      if (eof_) {
        if (pos_ == len_) return nullptr;
        data[len_] = '\0';  // the last line has no '\n'
        char* line = data + pos_;
        pos_ = len_;
        return line;
      }
      // Keep the partial line, make room (a line longer than the buffer
      // grows it), read more.
      std::memmove(data, data + pos_, len_ - pos_);
      len_ -= pos_;
      pos_ = 0;
      if (buf_.size() - 1 - len_ < kChunk / 2) buf_.resize(buf_.size() * 2);
      in_.read(buf_.data() + len_,
               static_cast<std::streamsize>(buf_.size() - 1 - len_));
      len_ += static_cast<std::size_t>(in_.gcount());
      if (!in_) eof_ = true;
    }
  }

 private:
  static constexpr std::size_t kChunk = std::size_t{1} << 20;
  std::istream& in_;
  std::vector<char> buf_;  // one byte past the data for the final NUL
  std::size_t pos_ = 0;    // start of the next line
  std::size_t len_ = 0;    // bytes of data in buf_
  bool eof_ = false;
};

bool is_space(char c) { return c == ' ' || c == '\t' || c == '\r'; }

// A 1-based index token [b, e) as a 0-based index. Plain digit strings take
// the fast path; anything else goes through strtoll, whose grammar (a sign,
// for one) the format has always accepted.
index_t parse_index(const char* b, const char* e, std::size_t line_no,
                    const char* line) {
  constexpr unsigned long long kMaxIndex =
      static_cast<unsigned long long>(std::numeric_limits<index_t>::max());
  unsigned long long v = 0;
  const char* q = b;
  if (e - b <= 18)  // 18 digits cannot overflow
    for (; q < e && static_cast<unsigned>(*q - '0') < 10; ++q)
      v = v * 10 + static_cast<unsigned>(*q - '0');
  if (q != e || q == b) {
    errno = 0;
    char* end = nullptr;
    const long long s = std::strtoll(b, &end, 10);
    if (end != e || end == b)
      fail_line(line_no, "non-integer index token", line);
    if (errno == ERANGE || s < 1) v = 0;  // out of range below
    else v = static_cast<unsigned long long>(s);
  }
  // v itself must fit index_t (not just v-1): the inferred shape stores
  // max(index)+1, which must not wrap.
  if (v < 1 || v > kMaxIndex)
    fail_line(line_no, "index out of range (must be 1-based and fit "
                       "the 32-bit index type)",
              line);
  return static_cast<index_t>(v - 1);
}

// The value token [b, e): from_chars, with strtod's grammar (a leading '+',
// hex floats) as the fallback.
real_t parse_value(const char* b, const char* e, std::size_t line_no,
                   const char* line) {
  double value = 0;
  const auto [ptr, ec] = std::from_chars(b, e, value);
  if (ec != std::errc() || ptr != e) {
    char* end = nullptr;
    value = std::strtod(b, &end);
    if (end != e || end == b)
      fail_line(line_no, "non-numeric value token", line);
  }
  if (!std::isfinite(value)) fail_line(line_no, "non-finite value", line);
  return static_cast<real_t>(value);
}

// Field-checked parse of "i1 i2 ... iN v". Returns the number of indices
// written to `coords`, 0 for blank/comment lines; throws a line-numbered
// parse_error on malformed content. Unlike a stream-extraction loop, this
// validates every token end-to-end: trailing garbage, fractional or
// overflowing indices, and non-numeric values are all errors instead of
// silent truncation.
std::size_t parse_line(const char* line, std::size_t line_no,
                       index_t (&coords)[kMaxOrder], real_t& value) {
  const char* p = line;
  while (is_space(*p)) ++p;
  if (*p == '\0' || *p == '#') return 0;
  std::size_t n = 0;
  for (;;) {
    const char* tok = p;
    while (*p != '\0' && !is_space(*p)) ++p;
    const char* tok_end = p;
    while (is_space(*p)) ++p;
    if (*p == '\0') {  // the last token is the value
      if (n == 0)
        fail_line(line_no, "truncated record (needs >=1 index + value)", line);
      value = parse_value(tok, tok_end, line_no, line);
      return n;
    }
    if (n == kMaxOrder)
      fail_line(line_no, "more indices than the maximum tensor order", line);
    coords[n++] = parse_index(tok, tok_end, line_no, line);
  }
}

// --- writing ----------------------------------------------------------------

// Shortest round-trip text of a double: "-2.2250738585072014e-308" is 24.
constexpr std::size_t kRealChars = 24;
// 1-based index_t: at most 10 digits.
constexpr std::size_t kIndexChars = 10;

char* put_real(char* p, real_t v) {
  return std::to_chars(p, p + kRealChars, static_cast<double>(v)).ptr;
}

// A file written with stdio, every step checked: a failed open, short write
// or failed close throws mdcp::error naming the path and the cause.
class OutFile {
 public:
  explicit OutFile(std::string path)
      : path_(std::move(path)), f_(std::fopen(path_.c_str(), "wb")) {
    if (f_ == nullptr) fail();
  }
  ~OutFile() {
    if (f_ != nullptr) std::fclose(f_);
  }
  OutFile(const OutFile&) = delete;
  OutFile& operator=(const OutFile&) = delete;

  void write(const char* data, std::size_t n) {
    if (std::fwrite(data, 1, n, f_) != n) fail();
  }
  void close() {
    std::FILE* f = f_;
    f_ = nullptr;
    if (std::fclose(f) != 0) fail();
  }

 private:
  [[noreturn]] void fail() const {
    throw error("cannot write " + path_ + ": " + std::strerror(errno));
  }

  std::string path_;
  std::FILE* f_;
};

// Formats rows [0, rows) with `format(i, p)`, which writes row i at p and
// returns its end (at most max_row_bytes later), and hands the text to
// `emit(data, size)` in row order. Each round, every thread formats the next
// batch of rows into its own ~256 KiB buffer; the buffers are then emitted
// in order. Memory stays at threads × 256 KiB, and the bytes do not depend
// on the thread count.
template <class Format, class Emit>
void stream_rows(nnz_t rows, std::size_t max_row_bytes, const Format& format,
                 const Emit& emit) {
  constexpr std::size_t kBufferBytes = std::size_t{256} << 10;
  const nnz_t batch = std::max<nnz_t>(1, kBufferBytes / max_row_bytes);
  const int threads =
      static_cast<int>(std::min<nnz_t>((rows + batch - 1) / batch,
                                       static_cast<nnz_t>(num_threads())));
  std::vector<std::unique_ptr<char[]>> buffers;
  for (int t = 0; t < threads; ++t)
    buffers.push_back(std::make_unique_for_overwrite<char[]>(batch * max_row_bytes));
  std::vector<std::size_t> used(static_cast<std::size_t>(threads), 0);
  const nnz_t round = batch * static_cast<nnz_t>(threads);
  for (nnz_t first = 0; first < rows; first += round) {
#pragma omp parallel for num_threads(threads) schedule(static, 1)
    for (int t = 0; t < threads; ++t) {
      const nnz_t begin = std::min(rows, first + static_cast<nnz_t>(t) * batch);
      const nnz_t end = std::min(rows, begin + batch);
      char* const start = buffers[t].get();
      char* p = start;
      for (nnz_t i = begin; i < end; ++i) p = format(i, p);
      used[t] = static_cast<std::size_t>(p - start);
    }
    for (int t = 0; t < threads; ++t)
      if (used[t] > 0) emit(buffers[t].get(), used[t]);
  }
}

template <class Emit>
void format_tns(const CooTensor& tensor, const Emit& emit) {
  const mode_t order = tensor.order();
  stream_rows(
      tensor.nnz(), order * (kIndexChars + 1) + kRealChars + 1,
      [&](nnz_t i, char* p) {
        for (mode_t m = 0; m < order; ++m) {
          const auto one_based =
              static_cast<std::uint64_t>(tensor.index(m, i)) + 1;
          p = std::to_chars(p, p + kIndexChars, one_based).ptr;
          *p++ = ' ';
        }
        p = put_real(p, tensor.value(i));
        *p++ = '\n';
        return p;
      },
      emit);
}

}  // namespace

CooTensor read_tns(std::istream& in, const shape_t& shape_hint,
                   const TnsReadOptions& opts, TnsReadStats* stats) {
  TnsReadStats local;
  TnsReadStats& st = stats != nullptr ? *stats : local;
  st = TnsReadStats{};

  LineReader reader(in);
  std::vector<std::vector<index_t>> indices;  // [mode][record]
  std::vector<real_t> values;
  shape_t extent;  // per-mode max index + 1: the inferred shape
  index_t coords[kMaxOrder] = {};
  real_t value = 0;
  std::size_t arity = 0;
  std::size_t line_no = 0;
  while (char* line = reader.next()) {
    ++line_no;
    st.lines_read = line_no;
    // Fault-injection site: simulate a short read (io.lines=N) by ending the
    // stream after N lines; downstream sees an ordinary shorter tensor.
    if (fault::should_inject(fault::Site::kIo, line_no)) {
      st.truncated = true;
      break;
    }
    std::size_t n = 0;
    try {
      n = parse_line(line, line_no, coords, value);
    } catch (const parse_error&) {
      if (opts.strict) throw;
      ++st.skipped_malformed;
      continue;
    }
    if (n == 0) continue;
    if (arity == 0) {
      arity = n;
      indices.resize(arity);
      extent.assign(arity, 0);
    } else if (n != arity) {
      if (opts.strict) {
        std::ostringstream os;
        os << ".tns line " << line_no << ": record has " << n
           << " indices, expected " << arity;
        throw parse_error(os.str(), line_no);
      }
      ++st.skipped_malformed;
      continue;
    }
    if (!shape_hint.empty()) {
      if (shape_hint.size() != n)
        fail_line(line_no, "record arity does not match the shape hint", line);
      for (std::size_t m = 0; m < n; ++m) {
        if (coords[m] >= shape_hint[m])
          fail_line(line_no, "index exceeds the shape hint", line);
      }
    }
    for (std::size_t m = 0; m < n; ++m) {
      indices[m].push_back(coords[m]);
      extent[m] = std::max(extent[m], coords[m] + 1);
    }
    values.push_back(value);
  }
  if (arity == 0) throw parse_error(".tns stream contains no nonzeros");
  st.records = values.size();

  shape_t shape = shape_hint;
  if (shape.empty()) {
    shape = std::move(extent);
  } else {
    MDCP_CHECK_MSG(shape.size() == arity, "shape hint arity mismatch");
  }
  return CooTensor(std::move(shape), std::move(indices), std::move(values));
}

CooTensor read_tns_file(const std::string& path, const shape_t& shape_hint,
                        const TnsReadOptions& opts, TnsReadStats* stats) {
  std::ifstream f(path);
  MDCP_CHECK_MSG(f.good(), "cannot open tensor file: " << path);
  return read_tns(f, shape_hint, opts, stats);
}

void write_tns(std::ostream& out, const CooTensor& tensor) {
  format_tns(tensor, [&out](const char* data, std::size_t n) {
    out.write(data, static_cast<std::streamsize>(n));
  });
  if (!out) throw error("write_tns: stream write failed");
}

void write_tns_file(const std::string& path, const CooTensor& tensor) {
  OutFile f(path);
  format_tns(tensor,
             [&f](const char* data, std::size_t n) { f.write(data, n); });
  f.close();
}

void write_matrix_file(const std::string& path, const Matrix& m) {
  OutFile f(path);
  const index_t cols = m.cols();
  stream_rows(
      m.rows(), cols * (kRealChars + 1) + 1,
      [&](nnz_t i, char* p) {
        const auto row = m.row(static_cast<index_t>(i));
        for (index_t j = 0; j < cols; ++j) {
          if (j > 0) *p++ = ' ';
          p = put_real(p, row[j]);
        }
        *p++ = '\n';
        return p;
      },
      [&f](const char* data, std::size_t n) { f.write(data, n); });
  f.close();
}

}  // namespace mdcp
