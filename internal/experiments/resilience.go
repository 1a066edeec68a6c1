package experiments

import "mixtlb/internal/journal"

// recordRows converts a cell's rows to the journal's wire shape.
func recordRows(rows []Row) [][]interface{} {
	out := make([][]interface{}, len(rows))
	for i, r := range rows {
		out[i] = []interface{}(r)
	}
	return out
}

// rowsFromRecord converts a replayed journal record back to cell rows.
func rowsFromRecord(rec journal.Record) []Row {
	rows := make([]Row, len(rec.Rows))
	for i, r := range rec.Rows {
		rows[i] = Row(r)
	}
	return rows
}
