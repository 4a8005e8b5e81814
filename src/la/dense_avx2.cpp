// Dense block kernels for AVX2+FMA (4-wide, 16 registers): a 4-row ×
// 2-vector register tile. Compiled with -mavx2 -mfma -ffp-contract=fast.
#define MDCP_DENSE_NS avx2
#define MDCP_DENSE_ISA Isa::kAvx2
#define MDCP_DENSE_TABLE kAvx2Kernels
#define MDCP_DENSE_LANES 4
#define MDCP_DENSE_MR 4
#define MDCP_DENSE_NV 2
#include "la/dense_kernels.inc"
