// im2col / col2im lowering for 3D convolution.
//
// A single sample x[N][Di][Hi][Wi] is lowered to the column matrix
// cols[K][P] with K = N·Kd·Kh·Kw rows and P = Do·Ho·Wo columns:
//   cols[((n·Kd + kd)·Kh + kh)·Kw + kw][ (od·Ho + oh)·Wo + ow ]
//     = x[n][od·Sd + kd − Pd][oh·Sh + kh − Ph][ow·Sw + kw − Pw]   (0 if padded)
//
// The row ordering is chosen so the paper's weight tensor
// W[M][N][Kd][Kh][Kw] flattens — with no repacking — to the row-major
// [M × K] matrix of  y = W · cols  (forward),  dW = dy · colsᵀ  and
// dcols = Wᵀ · dy  (backward via the transpose trick, scattered back by
// Col2im3d). All stride/padding combinations are supported; interior
// runs are copied contiguously and the padded border is zero-filled.
//
// Both work on a column slab: the S = (od_end − od_begin)·Ho·Wo columns
// of output-depth planes [od_begin, od_end), stored as cols[K × S]. A
// caller that walks a sample slab by slab holds K × S floats of scratch
// instead of K × P.
#pragma once

#include <cstdint>

namespace hwp3d::kernels {

// Static problem geometry of one Conv3d call.
struct Conv3dGeom {
  int64_t batch = 0;
  int64_t in_c = 0, out_c = 0;
  int64_t in_d = 0, in_h = 0, in_w = 0;
  int64_t k_d = 1, k_h = 1, k_w = 1;
  int64_t s_d = 1, s_h = 1, s_w = 1;
  int64_t p_d = 0, p_h = 0, p_w = 0;
  int64_t out_d = 0, out_h = 0, out_w = 0;

  int64_t cols_rows() const { return in_c * k_d * k_h * k_w; }   // K
  int64_t cols_cols() const { return out_d * out_h * out_w; }    // P
  int64_t in_sample_size() const { return in_c * in_d * in_h * in_w; }
  int64_t out_sample_size() const { return out_c * cols_cols(); }
};

// Fills the slab cols[K × S] of planes [od_begin, od_end) from one input
// sample; parallel over rows.
void Im2col3d(const Conv3dGeom& g, const float* x, int64_t od_begin,
              int64_t od_end, float* cols);

// Scatter-adds the slab cols[K × S] of planes [od_begin, od_end) back
// into one (pre-zeroed or accumulating) input-gradient sample
// dx[N][Di][Hi][Wi]; parallel over channels.
void Col2im3d(const Conv3dGeom& g, const float* cols, int64_t od_begin,
              int64_t od_end, float* dx);

}  // namespace hwp3d::kernels
