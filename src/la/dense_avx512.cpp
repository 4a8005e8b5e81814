// Dense block kernels for AVX-512F (8-wide, 32 registers): a 4-row ×
// 4-vector register tile. Compiled with -mavx512f -mavx2 -mfma
// -ffp-contract=fast.
#define MDCP_DENSE_NS avx512
#define MDCP_DENSE_ISA Isa::kAvx512
#define MDCP_DENSE_TABLE kAvx512Kernels
#define MDCP_DENSE_LANES 8
#define MDCP_DENSE_MR 4
#define MDCP_DENSE_NV 4
#include "la/dense_kernels.inc"
