//go:build !purego

#include "textflag.h"

// func laneTally(st *[4][8]uint64, acc *[8]uint64, thr uint64, m, windows int)
//
// Z0-Z3 hold state words s0-s3 of the eight lanes. Per draw, the xoshiro256**
// output rotl(s1·5, 7)·9 is formed by shifts and adds, compared unsigned with
// thr into K1, and K1 adds 5 to the lane's window count Z8; the state then
// takes step()'s transition with the xors merged by VPTERNLOGQ (0x96 is a
// three-way xor). A finished window adds 1 << count to the tally Z7, so a
// count c lands in the five-bit field c.
TEXT ·laneTally(SB), NOSPLIT, $0-40
	MOVQ st+0(FP), AX
	MOVQ acc+8(FP), BX
	MOVQ thr+16(FP), CX
	MOVQ m+24(FP), DX
	MOVQ windows+32(FP), SI
	VMOVDQU64 0(AX), Z0
	VMOVDQU64 64(AX), Z1
	VMOVDQU64 128(AX), Z2
	VMOVDQU64 192(AX), Z3
	VPBROADCASTQ CX, Z4
	MOVQ $5, CX
	VPBROADCASTQ CX, Z5
	MOVQ $1, CX
	VPBROADCASTQ CX, Z6
	VPXORQ Z7, Z7, Z7

window:
	VPXORQ Z8, Z8, Z8
	MOVQ DX, DI

draw:
	VPSLLQ $2, Z1, Z9
	VPADDQ Z1, Z9, Z9
	VPROLQ $7, Z9, Z9
	VPSLLQ $3, Z9, Z10
	VPADDQ Z9, Z10, Z9
	VPCMPUQ $1, Z4, Z9, K1
	VPADDQ Z5, Z8, K1, Z8
	VPSLLQ $17, Z1, Z10
	VPXORQ Z1, Z3, Z3
	VPTERNLOGQ $0x96, Z0, Z2, Z1
	VPTERNLOGQ $0x96, Z10, Z0, Z2
	VPXORQ Z3, Z0, Z0
	VPROLQ $45, Z3, Z3
	DECQ DI
	JNZ  draw

	VPSLLVQ Z8, Z6, Z9
	VPADDQ Z9, Z7, Z7
	DECQ SI
	JNZ  window

	VMOVDQU64 Z0, 0(AX)
	VMOVDQU64 Z1, 64(AX)
	VMOVDQU64 Z2, 128(AX)
	VMOVDQU64 Z3, 192(AX)
	VMOVDQU64 Z7, 0(BX)
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (a, b, c, d uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, a+8(FP)
	MOVL BX, b+12(FP)
	MOVL CX, c+16(FP)
	MOVL DX, d+20(FP)
	RET

// func xgetbv() (a, d uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, a+0(FP)
	MOVL DX, d+4(FP)
	RET
