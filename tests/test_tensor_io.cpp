#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "la/matrix.hpp"
#include "tensor/coo_tensor.hpp"
#include "tensor/generator.hpp"
#include "tensor/tensor_io.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace mdcp {
namespace {

TEST(TensorIo, ReadsBasicTns) {
  std::istringstream in("1 2 3 4.5\n2 1 1 -1\n");
  const CooTensor t = read_tns(in);
  EXPECT_EQ(t.order(), 3);
  EXPECT_EQ(t.nnz(), 2u);
  EXPECT_EQ(t.dim(0), 2u);
  EXPECT_EQ(t.dim(1), 2u);
  EXPECT_EQ(t.dim(2), 3u);
  EXPECT_EQ(t.index(0, 0), 0u);
  EXPECT_EQ(t.index(2, 0), 2u);
  EXPECT_DOUBLE_EQ(t.value(0), 4.5);
  EXPECT_DOUBLE_EQ(t.value(1), -1.0);
}

TEST(TensorIo, SkipsCommentsAndBlankLines) {
  std::istringstream in("# header\n\n  # indented comment\n1 1 2\n");
  const CooTensor t = read_tns(in);
  EXPECT_EQ(t.nnz(), 1u);
  EXPECT_DOUBLE_EQ(t.value(0), 2.0);
}

TEST(TensorIo, ShapeHintValidated) {
  std::istringstream in("1 1 1\n");
  const CooTensor t = read_tns(in, shape_t{5, 7});
  EXPECT_EQ(t.dim(0), 5u);
  EXPECT_EQ(t.dim(1), 7u);
}

TEST(TensorIo, ShapeHintArityMismatchThrows) {
  std::istringstream in("1 1 1\n");
  EXPECT_THROW(read_tns(in, shape_t{5, 7, 2}), error);
}

TEST(TensorIo, InconsistentArityThrows) {
  std::istringstream in("1 1 1\n1 1 1 1\n");
  EXPECT_THROW(read_tns(in), error);
}

TEST(TensorIo, EmptyStreamThrows) {
  std::istringstream in("# nothing here\n");
  EXPECT_THROW(read_tns(in), error);
}

TEST(TensorIo, ZeroIndexThrows) {
  std::istringstream in("0 1 1\n");
  EXPECT_THROW(read_tns(in), error);
}

TEST(TensorIo, RoundTripPreservesTensor) {
  CooTensor t(shape_t{3, 4, 2});
  t.push_back(std::array<index_t, 3>{0, 3, 1}, 1.25);
  t.push_back(std::array<index_t, 3>{2, 0, 0}, -7.5);
  std::ostringstream out;
  write_tns(out, t);
  std::istringstream in(out.str());
  const CooTensor back = read_tns(in, t.shape());
  EXPECT_EQ(t, back);
}

TEST(TensorIo, RoundTripHighPrecisionValues) {
  CooTensor t(shape_t{2, 2});
  t.push_back(std::array<index_t, 2>{0, 0}, 0.1234567890123456789);
  std::ostringstream out;
  write_tns(out, t);
  std::istringstream in(out.str());
  const CooTensor back = read_tns(in, t.shape());
  EXPECT_DOUBLE_EQ(back.value(0), t.value(0));
}

TEST(TensorIo, FileRoundTrip) {
  CooTensor t(shape_t{4, 4});
  t.push_back(std::array<index_t, 2>{1, 2}, 3.0);
  const std::string path = ::testing::TempDir() + "/mdcp_io_test.tns";
  write_tns_file(path, t);
  const CooTensor back = read_tns_file(path, t.shape());
  EXPECT_EQ(t, back);
}

TEST(TensorIo, MissingFileThrows) {
  EXPECT_THROW(read_tns_file("/nonexistent/path/x.tns"), error);
}

TEST(TensorIo, ReadsCrLfAndAMissingFinalNewline) {
  std::istringstream in("1 2 0.5\r\n# c\r\n2 1 -3");
  TnsReadStats st;
  const CooTensor t = read_tns(in, {}, {}, &st);
  EXPECT_EQ(st.lines_read, 3u);
  ASSERT_EQ(t.nnz(), 2u);
  EXPECT_DOUBLE_EQ(t.value(0), 0.5);
  EXPECT_DOUBLE_EQ(t.value(1), -3.0);
}

TEST(TensorIo, AcceptsSignedTokens) {
  std::istringstream in("+1 2 +0.25\n");
  const CooTensor t = read_tns(in);
  EXPECT_EQ(t.index(0, 0), 0u);
  EXPECT_DOUBLE_EQ(t.value(0), 0.25);
}

TEST(TensorIo, LineLongerThanTheReadBufferIsReported) {
  // 2 MiB of index digits: the line spans several buffer refills and is
  // still one line, rejected with its own line number.
  std::string text = "1 1 1\n1 ";
  text.append(std::size_t{2} << 20, '7');
  text += " 1\n2 2 2\n";
  std::istringstream strict_in(text);
  try {
    read_tns(strict_in);
    FAIL() << "overlong index accepted";
  } catch (const parse_error& e) {
    EXPECT_EQ(e.line, 2u);
  }
  std::istringstream in(text);
  TnsReadOptions opts;
  opts.strict = false;
  TnsReadStats st;
  EXPECT_EQ(read_tns(in, {}, opts, &st).nnz(), 2u);
  EXPECT_EQ(st.skipped_malformed, 1u);
}

TEST(TensorIo, TooManyIndicesIsAParseError) {
  std::string line;
  for (int i = 0; i <= kMaxOrder; ++i) line += "1 ";
  std::istringstream in(line + "1\n");
  EXPECT_THROW(read_tns(in), parse_error);
}

// --- writers ----------------------------------------------------------------

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/mdcp_io_" + name;
}

// Parses `text` as whitespace-separated numbers with strtod.
std::vector<double> parse_numbers(const std::string& text) {
  std::vector<double> out;
  const char* p = text.c_str();
  for (;;) {
    char* end = nullptr;
    const double v = std::strtod(p, &end);
    if (end == p) break;
    out.push_back(v);
    p = end;
  }
  return out;
}

TEST(MatrixWriter, ShortestTextRoundTripsBitwise) {
  const std::vector<double> values = {
      -0.0, 0.0, 4.9e-324, 2.2250738585072014e-308,
      1.7976931348623157e308, -1.7976931348623157e308,
      0.1 + 0.2,                // 0.30000000000000004: 17 digits
      1.0 / 3.0, 2.0 / 3.0, 123456789012345680.0, 1e-5, -7.0};
  Matrix m(static_cast<index_t>(values.size()) / 2, 2);
  std::copy(values.begin(), values.end(), m.data());
  const std::string path = temp_path("roundtrip.txt");
  write_matrix_file(path, m);
  const std::string text = slurp(path);
  const std::vector<double> back = parse_numbers(text);
  ASSERT_EQ(back.size(), values.size()) << text;
  for (std::size_t i = 0; i < values.size(); ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back[i]),
              std::bit_cast<std::uint64_t>(values[i]))
        << values[i] << " came back as " << back[i];
  // One row per line, one space between entries.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'),
            static_cast<std::ptrdiff_t>(m.rows()));
  EXPECT_EQ(text.substr(0, text.find('\n')), "-0 0");
}

TEST(MatrixWriter, BytesDoNotDependOnThreadCount) {
  // Several 256 KiB batches per thread at 4 threads, and a partial round.
  Rng rng(17);
  const Matrix m = Matrix::random_normal(30011, 8, rng);
  const int saved = num_threads();
  std::vector<std::string> files;
  for (int threads : {1, 4}) {
    set_num_threads(threads);
    const std::string path = temp_path("threads" + std::to_string(threads));
    write_matrix_file(path, m);
    files.push_back(slurp(path));
  }
  set_num_threads(saved);
  EXPECT_EQ(files[0], files[1]);
  const std::vector<double> back = parse_numbers(files[0]);
  ASSERT_EQ(back.size(), m.size());
  for (std::size_t i = 0; i < back.size(); ++i)
    ASSERT_EQ(back[i], m.data()[i]) << i;
}

TEST(MatrixWriter, ZeroColumnsWritesEmptyRows) {
  const std::string path = temp_path("empty.txt");
  write_matrix_file(path, Matrix(3, 0));
  EXPECT_EQ(slurp(path), "\n\n\n");
}

TEST(TensorIo, WriteReadRoundTripIsBitwise) {
  CooTensor t = generate_zipf({50, 60, 70}, 20000, 1.1, 3);
  Rng rng(4);
  for (real_t& v : t.values()) v = rng.next_normal() * 1e3;
  const int saved = num_threads();
  set_num_threads(4);
  const std::string path = temp_path("bitwise.tns");
  write_tns_file(path, t);
  set_num_threads(saved);
  EXPECT_EQ(read_tns_file(path, t.shape()), t);
  std::ostringstream out;
  write_tns(out, t);
  EXPECT_EQ(out.str(), slurp(path));
}

TEST(Writers, FailedWritesThrow) {
  const Matrix m(100, 4, 0.5);
  EXPECT_THROW(write_matrix_file("/nonexistent/dir/f.U0", m), error);
  if (!std::filesystem::exists("/dev/full"))
    GTEST_SKIP() << "no /dev/full on this system";
  // A small file fails at close (the flush), a large one at the write.
  EXPECT_THROW(write_matrix_file("/dev/full", m), error);
  EXPECT_THROW(write_matrix_file("/dev/full", Matrix(100000, 4, 0.5)), error);
  CooTensor t(shape_t{2, 2});
  t.push_back(std::array<index_t, 2>{0, 1}, 1.5);
  EXPECT_THROW(write_tns_file("/dev/full", t), error);
}

}  // namespace
}  // namespace mdcp
