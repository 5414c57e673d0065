//go:build amd64 && !purego

#include "textflag.h"

// The distance kernels. Each loop iteration is one four-element window of
// dotGo / l2SqGo: both operands widened to four float64 lanes, the term
// computed per lane, and added into ONE accumulator, so lane i sees the
// adds of partial sum s_i in the same order with the same roundings. No
// second accumulator, no wider window and no FMA: each would change which
// sums are rounded, and every pinned score with them.

// func dotLanes(a, b Vec, lanes *[4]float64)
TEXT ·dotLanes(SB), NOSPLIT, $0-56
	MOVQ   a_base+0(FP), SI
	MOVQ   a_len+8(FP), CX
	MOVQ   b_base+24(FP), DI
	MOVQ   lanes+48(FP), DX
	VXORPD Y0, Y0, Y0
	SHRQ   $2, CX
	JZ     dotdone

dotloop:
	VCVTPS2PD (SI), Y1
	VCVTPS2PD (DI), Y2
	VMULPD    Y2, Y1, Y1 // float32 x float32 is exact in float64
	VADDPD    Y1, Y0, Y0
	ADDQ      $16, SI
	ADDQ      $16, DI
	DECQ      CX
	JNZ       dotloop

dotdone:
	VMOVUPD Y0, (DX)
	VZEROUPPER
	RET

// func l2SqLanes(a, b Vec, lanes *[4]float64)
TEXT ·l2SqLanes(SB), NOSPLIT, $0-56
	MOVQ   a_base+0(FP), SI
	MOVQ   a_len+8(FP), CX
	MOVQ   b_base+24(FP), DI
	MOVQ   lanes+48(FP), DX
	VXORPD Y0, Y0, Y0
	SHRQ   $2, CX
	JZ     l2done

l2loop:
	VCVTPS2PD (SI), Y1
	VCVTPS2PD (DI), Y2
	VSUBPD    Y2, Y1, Y1 // a - b
	VMULPD    Y1, Y1, Y1 // rounded, as d*d is; an FMA would skip this rounding
	VADDPD    Y1, Y0, Y0
	ADDQ      $16, SI
	ADDQ      $16, DI
	DECQ      CX
	JNZ       l2loop

l2done:
	VMOVUPD Y0, (DX)
	VZEROUPPER
	RET

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
