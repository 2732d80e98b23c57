type suite = Spec2006 | Nas

type t = {
  name : string;
  suite : suite;
  description : string;
  source : string;
  unroll : int;
  multicore : bool;
}

(* ------------------------------------------------------------------ *)
(* SPEC2006 kernels (single-core, outer time loop).                    *)
(* ------------------------------------------------------------------ *)

(* Einstein evolution: metric updates through a web of shared
   temporaries over interleaved field components — exactly the paper's
   Figure 15 block, with the strided metric coefficients a data layout
   target. *)
let cactus_adm =
  {|
f64 A[2200];
f64 B[4400];
f64 C[2200];
f64 a; f64 b; f64 c; f64 d; f64 g; f64 h; f64 q; f64 r;
q = 0.7;
r = 0.3;
for t = 0 to 64 {
  for i = 1 to 1024 {
    a = A[2*i];
    b = A[2*i+1];
    c = a * B[4*i];
    d = b * B[4*i+4];
    g = q * B[4*i-2];
    h = r * B[4*i+2];
    C[2*i] = d + a * c;
    C[2*i+1] = g + r * h;
  }
}
|}

(* Simplex pivot: a row update plus a serial norm accumulation that
   cannot be vectorized. *)
let soplex =
  {|
f64 y[1056];
f64 col[1056];
f64 piv[1056];
f64 alpha; f64 acc;
for t = 0 to 8 {
  for i = 0 to 1024 {
    alpha = piv[i] * 0.125;
    y[i] = y[i] - alpha * col[i];
    acc = acc + alpha * alpha;
  }
}
|}

(* Lattice Boltzmann: four distribution streams, fully contiguous —
   every vectorizer finds the same packs. *)
let lbm =
  {|
f64 f0[1056];
f64 f1[1056];
f64 f2[1056];
f64 f3[1056];
f64 rho[1056];
for t = 0 to 8 {
  for i = 0 to 1024 {
    rho[i] = f0[i] + f1[i] + f2[i] + f3[i];
    f0[i] = f0[i] + 0.6 * (0.25 * rho[i] - f0[i]);
    f1[i] = f1[i] + 0.6 * (0.25 * rho[i] - f1[i]);
    f2[i] = f2[i] + 0.6 * (0.25 * rho[i] - f2[i]);
    f3[i] = f3[i] + 0.6 * (0.25 * rho[i] - f3[i]);
  }
}
|}

(* SU(3) lattice gauge arithmetic: interleaved complex multiply; the
   imaginary-part superword is the real-part superword permuted. *)
let milc =
  {|
f64 ax[2080];
f64 bx[2080];
f64 cx[2080];
for t = 0 to 8 {
  for i = 0 to 1024 {
    cx[2*i]   = ax[2*i] * bx[2*i]   - ax[2*i+1] * bx[2*i+1];
    cx[2*i+1] = ax[2*i] * bx[2*i+1] + ax[2*i+1] * bx[2*i];
  }
}
|}

(* Ray shading: single-precision dot products and clamps; privatised
   temporaries form four-wide scalar superwords. *)
let povray =
  {|
f32 nx[1088];
f32 ny[1088];
f32 nz[1088];
f32 out[1088];
f32 dif; f32 spec;
for t = 0 to 8 {
  for i = 0 to 1024 {
    dif = nx[i] * 0.57 + ny[i] * 0.57 + nz[i] * 0.57;
    spec = dif * dif;
    out[i] = max(0.0, dif + 0.5 * spec);
  }
}
|}

(* Molecular dynamics pair forces: displacement temporaries reused by
   the energy and force statements; interaction coefficients sit at
   stride four (a data-layout target). *)
let gromacs =
  {|
f64 x[2112];
f64 f[2112];
f64 coef[4400];
f64 dx; f64 dy; f64 e1; f64 e2;
for t = 0 to 16 {
  for i = 1 to 1024 {
    dx = x[2*i] - x[2*i-2];
    dy = x[2*i+1] - x[2*i-1];
    e1 = dx * coef[4*i];
    e2 = dy * coef[4*i+2];
    f[2*i] = f[2*i] + dx * e1;
    f[2*i+1] = f[2*i+1] + dy * e2;
  }
}
|}

(* Finite-element stiffness application: 2x2 blocks stored row-major,
   so matrix entries are strided (layout target) while the result
   vector is contiguous. *)
let calculix =
  {|
f64 K[4224];
f64 u[1056];
f64 rhs[1056];
for t = 0 to 16 {
  for i = 0 to 512 {
    rhs[2*i]   = K[4*i]   * u[2*i] + K[4*i+1] * u[2*i+1];
    rhs[2*i+1] = K[4*i+2] * u[2*i] + K[4*i+3] * u[2*i+1];
  }
}
|}

(* Adaptive FE library: wide-strided neighbour access plus a serial
   accumulation — packing costs exceed the benefit, so the cost model
   keeps the block scalar. *)
let deal_ii =
  {|
f64 v[4224];
f64 w[1056];
f64 s0;
for t = 0 to 8 {
  for i = 1 to 512 {
    w[i] = v[4*i] + v[4*i-3];
    s0 = s0 + w[i];
  }
}
|}

(* Weather advection: centred flux differences feeding an update —
   contiguous with one shared temporary stream. *)
let wrf =
  {|
f64 u[2600];
f64 flx[2600];
f64 unew[2600];
for t = 0 to 8 {
  for i = 1 to 1200 {
    flx[i] = 0.5 * (u[i+1] - u[i-1]);
    unew[i] = u[i] - 0.3 * flx[i] + 0.01;
  }
}
|}

(* Biomolecular forces: the Figure 15 web with expensive interactions
   (sqrt), so vectorization pays even through some packing. *)
let namd =
  {|
f64 P[2200];
f64 F[2200];
f64 W[4400];
f64 a; f64 b; f64 c; f64 d; f64 g; f64 h; f64 q; f64 r;
for t = 0 to 16 {
  for i = 1 to 1024 {
    q = W[4*i+1];
    r = W[4*i+3];
    a = P[2*i];
    b = P[2*i+1];
    c = sqrt(a * W[4*i] + 1.0);
    d = sqrt(b * W[4*i+4] + 1.0);
    g = q * W[4*i-2];
    h = r * W[4*i+2];
    F[2*i] = d + a * c;
    F[2*i+1] = g + r * h;
  }
}
|}

(* ------------------------------------------------------------------ *)
(* NAS kernels (outer loop is a parallel plane/block loop).            *)
(* ------------------------------------------------------------------ *)

(* Unstructured adaptive: restriction between refinement levels plus a
   contiguous smoothing sweep (single precision). *)
let ua =
  {|
f32 fine[16][1056];
f32 coarse[16][528];
f32 smth[16][1056];
for p = 0 to 16 {
  for t = 0 to 12 {
    for i = 0 to 512 {
      coarse[p][i] = 0.5 * (fine[p][2*i] + fine[p][2*i+1]);
      smth[p][i] = 0.7 * fine[p][i] + 0.3 * smth[p][i];
    }
  }
}
|}

(* FFT butterflies: twiddle factors in strided read-only tables
   (layout target); real/imaginary temporaries are reused across the
   add/subtract pair. *)
let ft =
  {|
f64 re[16][1056];
f64 im[16][1056];
f64 wre[2112];
f64 wim[2112];
f64 tr; f64 ti;
for p = 0 to 16 {
  for t = 0 to 12 {
    for i = 0 to 256 {
      tr = wre[4*i] * re[p][i+512] - wim[4*i+2] * im[p][i+512];
      ti = wre[4*i] * im[p][i+512] + wim[4*i+2] * re[p][i+512];
      re[p][i+512] = re[p][i] - tr;
      im[p][i+512] = im[p][i] - ti;
      re[p][i] = re[p][i] + tr;
      im[p][i] = im[p][i] + ti;
    }
  }
}
|}

(* Block-tridiagonal: 2x2 block application with shared right-hand
   side temporaries. *)
let bt =
  {|
f64 lhs[16][2112];
f64 xv[16][1056];
f64 r1; f64 r2;
for p = 0 to 16 {
  for t = 0 to 12 {
    for i = 0 to 256 {
      r1 = lhs[p][4*i]   * xv[p][2*i] + lhs[p][4*i+1] * xv[p][2*i+1];
      r2 = lhs[p][4*i+2] * xv[p][2*i] + lhs[p][4*i+3] * xv[p][2*i+1];
      xv[p][2*i]   = xv[p][2*i]   - 0.2 * r1;
      xv[p][2*i+1] = xv[p][2*i+1] - 0.2 * r2;
    }
  }
}
|}

(* Scalar pentadiagonal: five-point contiguous sweep — the
   all-schemes-agree kernel. *)
let sp =
  {|
f64 u[16][1060];
f64 rhs[16][1060];
for p = 0 to 16 {
  for t = 0 to 8 {
    for i = 2 to 1026 {
      rhs[p][i] = 0.05*u[p][i-2] + 0.25*u[p][i-1] + 0.4*u[p][i]
                + 0.25*u[p][i+1] + 0.05*u[p][i+2];
    }
  }
}
|}

(* Multigrid smoothing with a strided 1-D damping table — the table
   gathers are exactly what array replication repairs. *)
let mg =
  {|
f64 fine[16][1060];
f64 coarse[16][1056];
f64 damp[2300];
for p = 0 to 16 {
  for t = 0 to 8 {
    for i = 0 to 1024 {
      coarse[p][i] = damp[2*i] * fine[p][i] + damp[2*i+1] * fine[p][i+1];
    }
  }
}
|}

(* Conjugate gradient: vector update plus the serial dot-product
   recurrence. *)
let cg =
  {|
f64 pvec[16][1056];
f64 z[16][1056];
f64 rdot;
for p = 0 to 16 {
  for t = 0 to 8 {
    for i = 0 to 1024 {
      z[p][i] = z[p][i] + 0.8 * pvec[p][i];
      rdot = rdot + pvec[p][i] * pvec[p][i];
    }
  }
}
|}

let all =
  [
    {
      name = "cactusADM";
      suite = Spec2006;
      description = "Solving the Einstein evolution equations";
      source = cactus_adm;
      unroll = 1;
      multicore = false;
    };
    {
      name = "soplex";
      suite = Spec2006;
      description = "Linear programming solver using simplex algorithm";
      source = soplex;
      unroll = 2;
      multicore = false;
    };
    {
      name = "lbm";
      suite = Spec2006;
      description = "Lattice Boltzmann method";
      source = lbm;
      unroll = 2;
      multicore = false;
    };
    {
      name = "milc";
      suite = Spec2006;
      description = "Simulations of 3-D SU(3) lattice gauge theory";
      source = milc;
      unroll = 2;
      multicore = false;
    };
    {
      name = "povray";
      suite = Spec2006;
      description = "Ray-tracing: a rendering technique";
      source = povray;
      unroll = 4;
      multicore = false;
    };
    {
      name = "gromacs";
      suite = Spec2006;
      description = "Performing molecular dynamics";
      source = gromacs;
      unroll = 1;
      multicore = false;
    };
    {
      name = "calculix";
      suite = Spec2006;
      description = "Setting up finite element equations and solving them";
      source = calculix;
      unroll = 2;
      multicore = false;
    };
    {
      name = "dealII";
      suite = Spec2006;
      description = "Object oriented finite element software library";
      source = deal_ii;
      unroll = 2;
      multicore = false;
    };
    {
      name = "wrf";
      suite = Spec2006;
      description = "Weather research and forecasting";
      source = wrf;
      unroll = 2;
      multicore = false;
    };
    {
      name = "namd";
      suite = Spec2006;
      description = "Simulation of large biomolecular systems";
      source = namd;
      unroll = 1;
      multicore = false;
    };
    {
      name = "ua";
      suite = Nas;
      description = "Unstructured adaptive 3-D";
      source = ua;
      unroll = 4;
      multicore = true;
    };
    {
      name = "ft";
      suite = Nas;
      description = "Fast fourier transform (FFT)";
      source = ft;
      unroll = 2;
      multicore = true;
    };
    {
      name = "bt";
      suite = Nas;
      description = "Block tridiagonal";
      source = bt;
      unroll = 1;
      multicore = true;
    };
    {
      name = "sp";
      suite = Nas;
      description = "Scalar pentadiagonal";
      source = sp;
      unroll = 2;
      multicore = true;
    };
    {
      name = "mg";
      suite = Nas;
      description = "Multigrid to solve the 3-D poisson PDE";
      source = mg;
      unroll = 2;
      multicore = true;
    };
    {
      name = "cg";
      suite = Nas;
      description = "Conjugate gradient";
      source = cg;
      unroll = 2;
      multicore = true;
    };
  ]

let nas = List.filter (fun b -> b.suite = Nas) all
let find name = List.find (fun b -> String.equal b.name name) all
let unroll_at b ~simd_bits = max 1 (b.unroll * simd_bits / 128)
let program b = Slp_frontend.Parser.parse ~name:b.name b.source
let suite_name = function Spec2006 -> "SPEC2006" | Nas -> "NAS"
