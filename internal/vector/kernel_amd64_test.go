//go:build amd64 && !purego

package vector

import (
	"os"
	"regexp"
	"testing"
)

// TestKernelSelected logs which path Dot and L2Sq take on this host and,
// where the kernel publishes the CPU's feature flags, checks the
// hand-rolled CPUID / XGETBV detection against them (Linux lists avx2
// only when the OS also enabled the ymm state).
func TestKernelSelected(t *testing.T) {
	t.Logf("AVX2 kernel in use: %v", useKernel)
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo to check against: %v", err)
	}
	if listed := regexp.MustCompile(`(?m)^flags\s*:.*\bavx2\b`).Match(info); listed != useKernel {
		t.Fatalf("/proc/cpuinfo lists avx2: %v, but useKernel = %v", listed, useKernel)
	}
}
