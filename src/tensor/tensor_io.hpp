// Text I/O for sparse tensors in the FROSTT `.tns` format:
// one nonzero per line, 1-based indices followed by the value, plus optional
// `#`-comment lines. This is the de-facto interchange format of the sparse
// tensor community (SPLATT, ParTI, FROSTT all read it).
//
// Numbers are written as the shortest decimal that strtod reads back to the
// same double (std::to_chars), so a written file round-trips exactly.
//
// Parsing is field-checked: non-numeric tokens, non-integral or out-of-range
// indices (anything that does not fit index_t), inconsistent arity, and
// truncated records raise a line-numbered mdcp::parse_error in strict mode
// (the default). Non-strict mode skips malformed lines and counts them in
// TnsReadStats instead — for salvaging partially corrupt dumps.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>

#include "la/matrix.hpp"
#include "tensor/coo_tensor.hpp"

namespace mdcp {

struct TnsReadOptions {
  /// Strict (default): malformed lines raise mdcp::parse_error carrying the
  /// 1-based line number. Non-strict: malformed lines are skipped and
  /// counted in TnsReadStats::skipped_malformed.
  bool strict = true;
};

/// Per-read accounting, filled when the caller passes a TnsReadStats*.
struct TnsReadStats {
  std::size_t lines_read = 0;         ///< lines consumed (records + comments)
  std::size_t records = 0;            ///< nonzero records accepted
  std::size_t skipped_malformed = 0;  ///< lines dropped (non-strict only)
  /// True when the stream ended early via the fault-injection short-read
  /// site (io.lines=N); downstream code sees an ordinary shorter tensor.
  bool truncated = false;
};

/// Reads a .tns stream. The shape is inferred as the per-mode maximum index
/// unless `shape_hint` is nonempty (then indices are validated against it).
CooTensor read_tns(std::istream& in, const shape_t& shape_hint = {},
                   const TnsReadOptions& opts = {},
                   TnsReadStats* stats = nullptr);

/// Reads a .tns file from disk.
CooTensor read_tns_file(const std::string& path, const shape_t& shape_hint = {},
                        const TnsReadOptions& opts = {},
                        TnsReadStats* stats = nullptr);

/// Writes the tensor in .tns format (1-based indices). Throws mdcp::error
/// if the stream fails.
void write_tns(std::ostream& out, const CooTensor& tensor);

/// write_tns to a file; throws mdcp::error naming `path` if opening,
/// writing or closing it fails.
void write_tns_file(const std::string& path, const CooTensor& tensor);

/// Writes `m` as text, one row per line, entries separated by one space.
/// Rows are formatted in parallel into bounded per-thread buffers and
/// written in order, so the bytes do not depend on the thread count. Throws
/// mdcp::error naming `path` if opening, writing or closing it fails.
void write_matrix_file(const std::string& path, const Matrix& m);

}  // namespace mdcp
