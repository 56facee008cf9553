package workload

// FillRowsIntact reports the first fill row that no longer equals its
// formula. Installs borrow the rows, so a write that reached a borrowed
// page would show here.
func FillRowsIntact() (row int, ok bool) {
	for s := 0; s < 256; s++ {
		data := fillRow(byte(s))
		for j := range data {
			if data[j] != byte(s+j*7) {
				return s, false
			}
		}
	}
	return 0, true
}
