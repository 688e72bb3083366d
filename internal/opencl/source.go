package opencl

// This file carries the OpenCL C sources of the paper's two compute
// kernels (§IV-B) as reference documentation. The simulated runtime
// executes semantically equivalent Go (internal/tensor); keeping the CL
// text alongside makes the port auditable against the paper's described
// implementation: thread-per-node work division, row-major float4
// loads, and local-memory staging on the discrete GPU only.

// FFNNKernelSource is the dense-layer kernel: one work-item per output
// neuron per sample, row-major float4 accumulation (§IV-B).
const FFNNKernelSource = `
// bomw reference kernel: dense (fully connected) layer forward pass.
// global = (neurons, samples); thread-per-node parallelisation with a
// second level of parallelism across samples (§IV-B).
__kernel void ffnn_layer(
    __global const float4 *input,   // [samples][in/4], row-major
    __global const float4 *weights, // [neurons][in/4], row-major
    __global const float  *bias,    // [neurons]
    __global float        *output,  // [samples][neurons]
    const int in4,                  // fan-in / 4
    const int neurons,
    const int activation)           // 0=id 1=relu 2=tanh 3=sigmoid
{
    const int n = get_global_id(0); // neuron
    const int s = get_global_id(1); // sample
    if (n >= neurons) return;
    float acc = bias[n];
    // Row-major float4 loads: vectorises to SIMD on the CPU and stays
    // coalesced enough on GPUs that transposition does not pay (§IV-B).
    for (int k = 0; k < in4; ++k) {
        float4 x = input[s * in4 + k];
        float4 w = weights[n * in4 + k];
        acc += dot(x, w);
    }
    if (activation == 1) acc = fmax(acc, 0.0f);
    else if (activation == 2) acc = tanh(acc);
    else if (activation == 3) acc = 1.0f / (1.0f + exp(-acc));
    output[s * neurons + n] = acc;
}
`

// CNNKernelSource is the convolution kernel: all convolution positions of
// one filter computed in parallel, all filters in parallel, plus pooling
// (§IV-B). LOCAL_STAGE is defined only when compiling for the discrete
// GPU, where on-chip local memory is real; on CPUs local memory aliases
// global memory and staging would only add copies (§IV-B).
const CNNKernelSource = `
// bomw reference kernel: 2-D convolution (valid or same padding) and
// non-overlapping max pooling.
__kernel void conv2d(
    __global const float *input,   // [C][H][W] per sample
    __global const float *filters, // [F][C][K][K]
    __global const float *bias,    // [F]
    __global float       *output,  // [F][OH][OW] per sample
    const int C, const int H, const int W,
    const int K, const int F, const int pad)
{
    const int ox = get_global_id(0);
    const int oy = get_global_id(1);
    const int f  = get_global_id(2);
    const int OW = W + 2*pad - K + 1;
    const int OH = H + 2*pad - K + 1;
    if (ox >= OW || oy >= OH || f >= F) return;
#ifdef LOCAL_STAGE
    // Discrete GPU: stage the filter into on-chip local memory once per
    // work-group (§IV-B: "we explicitly stage data to local memory only
    // when performing computations on the discrete GPU").
    __local float lf[32*3*3];
    event_t ev = async_work_group_copy(lf, filters + f*C*K*K, C*K*K, 0);
    wait_group_events(1, &ev);
#endif
    float acc = bias[f];
    for (int c = 0; c < C; ++c)
        for (int ky = 0; ky < K; ++ky)
            for (int kx = 0; kx < K; ++kx) {
                int iy = oy + ky - pad;
                int ix = ox + kx - pad;
                float v = (iy < 0 || iy >= H || ix < 0 || ix >= W)
                        ? 0.0f : input[(c*H + iy)*W + ix];
#ifdef LOCAL_STAGE
                acc += v * lf[(c*K + ky)*K + kx];
#else
                acc += v * filters[((f*C + c)*K + ky)*K + kx];
#endif
            }
    output[(f*OH + oy)*OW + ox] = fmax(acc, 0.0f); // fused ReLU
}

__kernel void maxpool2d(
    __global const float *input,  // [C][H][W]
    __global float       *output, // [C][H/P][W/P]
    const int C, const int H, const int W, const int P)
{
    const int ox = get_global_id(0);
    const int oy = get_global_id(1);
    const int c  = get_global_id(2);
    const int OW = W / P, OH = H / P;
    if (ox >= OW || oy >= OH || c >= C) return;
    float best = -INFINITY;
    for (int py = 0; py < P; ++py)
        for (int px = 0; px < P; ++px)
            best = fmax(best, input[(c*H + oy*P + py)*W + ox*P + px]);
    output[(c*OH + oy)*OW + ox] = best;
}
`
