// Dense block kernels for baseline x86-64 (2-wide SSE2, 16 registers): a
// 4-row × 2-vector register tile. Also the only path on other targets.
#define MDCP_DENSE_NS baseline
#define MDCP_DENSE_ISA Isa::kBaseline
#define MDCP_DENSE_TABLE kBaselineKernels
#define MDCP_DENSE_LANES 2
#define MDCP_DENSE_MR 4
#define MDCP_DENSE_NV 2
#include "la/dense_kernels.inc"
