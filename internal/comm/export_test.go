package comm

// Relayout stores every row that holds traffic densely (dense) or sorted,
// leaving every entry as it was, so a test can check that a reader sees
// the same traffic in either layout.
func (m *Matrix) Relayout(dense bool) {
	for src := range m.ranks {
		row := m.Row(src)
		switch {
		case dense && row.Dense == nil && (len(row.Sorted) > 0 || row.Uniform.Messages != 0):
			d := make([]Entry, m.ranks)
			for _, e := range row.Sorted {
				d[e.Dst] = e.Entry
			}
			m.dense[src], m.sorted[src] = d, nil
		case !dense && row.Dense != nil:
			var sorted []DstEntry
			for dst, e := range row.Dense {
				if e.Messages != 0 {
					sorted = append(sorted, DstEntry{Dst: dst, Entry: e})
				}
			}
			m.dense[src], m.sorted[src] = nil, sorted
		}
	}
}
