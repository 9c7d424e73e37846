// A deliberately dirty one-package module: the CLI tests pin the plain
// and -json output formats against it.
package badmod

func same(prev, next float64) bool {
	return prev == next
}
