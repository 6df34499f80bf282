// Package openmrs reproduces the structure of the OpenMRS medical-record
// web application used as the larger of the paper's two evaluation targets
// (112 page benchmarks, Sec. 6). The reproduction keeps the query *patterns*
// that drive the paper's numbers: a framework preamble on every page
// (authenticated user, roles, privileges, global properties), Hibernate-
// style eager reference hydration, per-entity queries inside loops (the 1+N
// pattern of encounterDisplay.jsp), and model entries that the view may or
// may not render.
package openmrs

import (
	"fmt"
	"math/rand"

	"repro/internal/sqldb"
	"repro/internal/sqldb/engine"
)

// Schema is the DDL for the reproduction's OpenMRS database.
var Schema = []string{
	`CREATE TABLE users (id INT PRIMARY KEY, username TEXT, person_id INT, retired BOOL)`,
	`CREATE TABLE persons (id INT PRIMARY KEY, gender TEXT, birth_year INT, dead BOOL)`,
	`CREATE TABLE person_names (id INT PRIMARY KEY, person_id INT, given_name TEXT, family_name TEXT, preferred BOOL)`,
	`CREATE INDEX idx_pname_person ON person_names (person_id)`,
	`CREATE TABLE person_attributes (id INT PRIMARY KEY, person_id INT, attr_type TEXT, value TEXT)`,
	`CREATE INDEX idx_pattr_person ON person_attributes (person_id)`,
	`CREATE TABLE person_addresses (id INT PRIMARY KEY, person_id INT, city TEXT, country TEXT)`,
	`CREATE INDEX idx_paddr_person ON person_addresses (person_id)`,
	`CREATE TABLE roles (id INT PRIMARY KEY, name TEXT)`,
	`CREATE TABLE user_roles (id INT PRIMARY KEY, user_id INT, role_id INT)`,
	`CREATE INDEX idx_uroles_user ON user_roles (user_id)`,
	`CREATE TABLE role_privileges (id INT PRIMARY KEY, role_id INT, privilege TEXT)`,
	`CREATE INDEX idx_rpriv_role ON role_privileges (role_id)`,
	`CREATE TABLE global_properties (id INT PRIMARY KEY, name TEXT, value TEXT)`,
	`CREATE UNIQUE INDEX idx_gp_name ON global_properties (name)`,
	`CREATE TABLE patients (id INT PRIMARY KEY, person_id INT, creator INT)`,
	`CREATE INDEX idx_patient_person ON patients (person_id)`,
	`CREATE TABLE patient_identifiers (id INT PRIMARY KEY, patient_id INT, identifier TEXT, id_type TEXT)`,
	`CREATE INDEX idx_pid_patient ON patient_identifiers (patient_id)`,
	`CREATE TABLE encounters (id INT PRIMARY KEY, patient_id INT, encounter_type INT, visit_id INT, form_id INT, provider_id INT, date_idx INT)`,
	`CREATE INDEX idx_enc_patient ON encounters (patient_id)`,
	`CREATE INDEX idx_enc_visit ON encounters (visit_id)`,
	`CREATE TABLE obs (id INT PRIMARY KEY, encounter_id INT, patient_id INT, concept_id INT, value_num FLOAT, value_text TEXT, top_level BOOL)`,
	`CREATE INDEX idx_obs_encounter ON obs (encounter_id)`,
	`CREATE INDEX idx_obs_patient ON obs (patient_id)`,
	`CREATE TABLE concepts (id INT PRIMARY KEY, datatype TEXT, class TEXT, retired BOOL)`,
	`CREATE TABLE concept_names (id INT PRIMARY KEY, concept_id INT, name TEXT, locale TEXT)`,
	`CREATE INDEX idx_cname_concept ON concept_names (concept_id)`,
	`CREATE TABLE visits (id INT PRIMARY KEY, patient_id INT, visit_type_id INT, active BOOL)`,
	`CREATE INDEX idx_visit_patient ON visits (patient_id)`,
	`CREATE TABLE visit_types (id INT PRIMARY KEY, name TEXT, retired BOOL)`,
	`CREATE TABLE locations (id INT PRIMARY KEY, name TEXT, parent_id INT)`,
	`CREATE INDEX idx_loc_parent ON locations (parent_id)`,
	`CREATE TABLE forms (id INT PRIMARY KEY, name TEXT, encounter_type INT, retired BOOL)`,
	`CREATE TABLE fields (id INT PRIMARY KEY, name TEXT, concept_id INT)`,
	`CREATE TABLE form_fields (id INT PRIMARY KEY, form_id INT, field_id INT)`,
	`CREATE INDEX idx_ff_form ON form_fields (form_id)`,
	`CREATE TABLE providers (id INT PRIMARY KEY, person_id INT, name TEXT, retired BOOL)`,
	`CREATE TABLE drugs (id INT PRIMARY KEY, concept_id INT, name TEXT, retired BOOL)`,
	`CREATE TABLE orders (id INT PRIMARY KEY, patient_id INT, concept_id INT, drug_id INT, active BOOL)`,
	`CREATE INDEX idx_order_patient ON orders (patient_id)`,
	`CREATE TABLE programs (id INT PRIMARY KEY, concept_id INT, name TEXT)`,
	`CREATE TABLE patient_programs (id INT PRIMARY KEY, patient_id INT, program_id INT, active BOOL)`,
	`CREATE INDEX idx_pprog_patient ON patient_programs (patient_id)`,
	`CREATE TABLE alerts (id INT PRIMARY KEY, user_id INT, text TEXT, satisfied BOOL)`,
	`CREATE INDEX idx_alert_user ON alerts (user_id)`,
	`CREATE TABLE encounter_types (id INT PRIMARY KEY, name TEXT, retired BOOL)`,
	`CREATE TABLE modules (id INT PRIMARY KEY, name TEXT, started BOOL)`,
	`CREATE TABLE scheduler_tasks (id INT PRIMARY KEY, name TEXT, started BOOL)`,
	`CREATE TABLE hl7_in_queue (id INT PRIMARY KEY, source_id INT, state INT)`,
	`CREATE TABLE relationship_types (id INT PRIMARY KEY, a_is_to_b TEXT, b_is_to_a TEXT)`,
}

// SizeConfig controls data generation. The defaults approximate the paper's
// 2 GB sample database scaled to keep the full benchmark suite fast; the
// database-scaling experiment (Fig. 10) raises ObsPerEncounter.
type SizeConfig struct {
	Patients        int
	EncountersPer   int // encounters per patient
	ObsPerEncounter int // observations per encounter
	Concepts        int
	Users           int
	Roles           int
	PrivsPerRole    int
	GlobalProps     int
	Locations       int
	Forms           int
	FieldsPerForm   int
	VisitsPer       int // visits per patient
	Providers       int
	Drugs           int
	Programs        int
	Alerts          int
	Modules         int
	Tasks           int
	HL7Queue        int
}

// DefaultSize is the standard benchmark database.
func DefaultSize() SizeConfig {
	return SizeConfig{
		Patients:        40,
		EncountersPer:   3,
		ObsPerEncounter: 12,
		Concepts:        150,
		Users:           10,
		Roles:           4,
		PrivsPerRole:    6,
		GlobalProps:     80,
		Locations:       12,
		Forms:           10,
		FieldsPerForm:   8,
		VisitsPer:       2,
		Providers:       8,
		Drugs:           25,
		Programs:        6,
		Alerts:          60,
		Modules:         12,
		Tasks:           8,
		HL7Queue:        10,
	}
}

// DashboardPatientID is the patient the harness loads dashboards for; the
// seeder guarantees it exists and has encounters, visits, and observations.
const DashboardPatientID = 1

// AdminUserID is the logged-in user for every benchmark request.
const AdminUserID = 1

// Seed creates the schema and fills it with deterministic synthetic data.
// It executes directly against the engine (no network accounting), standing
// in for the paper's pre-loaded sample database.
func Seed(db *engine.DB, size SizeConfig) error {
	s := db.NewSession()
	for _, ddl := range Schema {
		if _, err := s.Exec(ddl); err != nil {
			return fmt.Errorf("openmrs: schema: %w", err)
		}
	}
	rng := rand.New(rand.NewSource(42))

	exec := func(sql string, args ...any) error {
		vals := make([]sqldb.Value, len(args))
		for i, a := range args {
			vals[i] = a
		}
		if _, err := s.Exec(sql, vals...); err != nil {
			return fmt.Errorf("openmrs: seed: %w", err)
		}
		return nil
	}

	genders := []string{"M", "F"}
	givenNames := []string{"Ada", "Ben", "Cora", "Dan", "Elsa", "Finn", "Gia", "Hugo"}
	familyNames := []string{"Okafor", "Smith", "Diaz", "Chen", "Patel", "Mbeki"}
	cities := []string{"Boston", "Kampala", "Nairobi", "Lima", "Hanoi"}

	// Persons: one per patient, one per user, one per provider.
	personID := int64(0)
	newPerson := func() (int64, error) {
		personID++
		if err := exec("INSERT INTO persons (id, gender, birth_year, dead) VALUES (?, ?, ?, FALSE)",
			personID, genders[rng.Intn(2)], 1930+rng.Intn(80)); err != nil {
			return 0, err
		}
		nameID := personID*10 + 1
		if err := exec("INSERT INTO person_names (id, person_id, given_name, family_name, preferred) VALUES (?, ?, ?, ?, TRUE)",
			nameID, personID, givenNames[rng.Intn(len(givenNames))], familyNames[rng.Intn(len(familyNames))]); err != nil {
			return 0, err
		}
		if err := exec("INSERT INTO person_attributes (id, person_id, attr_type, value) VALUES (?, ?, 'phone', ?)",
			personID*10+2, personID, fmt.Sprintf("555-%04d", rng.Intn(10000))); err != nil {
			return 0, err
		}
		if err := exec("INSERT INTO person_addresses (id, person_id, city, country) VALUES (?, ?, ?, 'XX')",
			personID*10+3, personID, cities[rng.Intn(len(cities))]); err != nil {
			return 0, err
		}
		return personID, nil
	}

	// Roles and privileges.
	privileges := []string{"View Patients", "Edit Patients", "View Encounters", "View Concepts", "Manage Forms", "View Admin", "Manage Users", "View Orders", "View Programs", "Manage Modules"}
	for r := 1; r <= size.Roles; r++ {
		if err := exec("INSERT INTO roles (id, name) VALUES (?, ?)", int64(r), fmt.Sprintf("role-%d", r)); err != nil {
			return err
		}
		for p := 0; p < size.PrivsPerRole; p++ {
			id := int64(r*100 + p)
			if err := exec("INSERT INTO role_privileges (id, role_id, privilege) VALUES (?, ?, ?)",
				id, int64(r), privileges[(r+p)%len(privileges)]); err != nil {
				return err
			}
		}
	}

	// Users: each has a person and 1–2 roles. User 1 is the admin used by
	// the harness and always holds role 1. Role r above is seeded with
	// privileges[(r+p)%10] for p < PrivsPerRole, so with the default sizes
	// (4 roles, 6 privileges each) role 1 holds indexes 1..6 and no role
	// holds index 0, "View Patients": patientDashboardForm.jsp's privilege
	// check fails for every user and the page takes its "insufficient
	// privileges" branch, rendering only the preamble's sections.
	for u := 1; u <= size.Users; u++ {
		pid, err := newPerson()
		if err != nil {
			return err
		}
		if err := exec("INSERT INTO users (id, username, person_id, retired) VALUES (?, ?, ?, FALSE)",
			int64(u), fmt.Sprintf("user%d", u), pid); err != nil {
			return err
		}
		nRoles := 1 + rng.Intn(2)
		for r := 0; r < nRoles; r++ {
			roleID := int64(1 + (u+r)%size.Roles)
			if u == 1 && r == 0 {
				roleID = 1
			}
			if err := exec("INSERT INTO user_roles (id, user_id, role_id) VALUES (?, ?, ?)",
				int64(u*10+r), int64(u), roleID); err != nil {
				return err
			}
		}
	}

	// Global properties.
	for g := 1; g <= size.GlobalProps; g++ {
		if err := exec("INSERT INTO global_properties (id, name, value) VALUES (?, ?, ?)",
			int64(g), fmt.Sprintf("prop.%d", g), fmt.Sprintf("value-%d", g)); err != nil {
			return err
		}
	}

	// Concepts with names.
	for cid := 1; cid <= size.Concepts; cid++ {
		if err := exec("INSERT INTO concepts (id, datatype, class, retired) VALUES (?, 'Numeric', 'Test', FALSE)", int64(cid)); err != nil {
			return err
		}
		if err := exec("INSERT INTO concept_names (id, concept_id, name, locale) VALUES (?, ?, ?, 'en')",
			int64(cid*10), int64(cid), fmt.Sprintf("concept-%d", cid)); err != nil {
			return err
		}
	}

	// Reference data.
	for i := 1; i <= size.Locations; i++ {
		parent := int64(0)
		if i > 1 {
			parent = int64(1 + rng.Intn(i-1))
		}
		if err := exec("INSERT INTO locations (id, name, parent_id) VALUES (?, ?, ?)", int64(i), fmt.Sprintf("loc-%d", i), parent); err != nil {
			return err
		}
	}
	for i := 1; i <= 5; i++ {
		if err := exec("INSERT INTO visit_types (id, name, retired) VALUES (?, ?, FALSE)", int64(i), fmt.Sprintf("visit-type-%d", i)); err != nil {
			return err
		}
		if err := exec("INSERT INTO encounter_types (id, name, retired) VALUES (?, ?, FALSE)", int64(i), fmt.Sprintf("enc-type-%d", i)); err != nil {
			return err
		}
	}
	fieldID := int64(0)
	for f := 1; f <= size.Forms; f++ {
		if err := exec("INSERT INTO forms (id, name, encounter_type, retired) VALUES (?, ?, ?, FALSE)",
			int64(f), fmt.Sprintf("form-%d", f), int64(1+rng.Intn(5))); err != nil {
			return err
		}
		for k := 0; k < size.FieldsPerForm; k++ {
			fieldID++
			if err := exec("INSERT INTO fields (id, name, concept_id) VALUES (?, ?, ?)",
				fieldID, fmt.Sprintf("field-%d", fieldID), int64(1+rng.Intn(size.Concepts))); err != nil {
				return err
			}
			if err := exec("INSERT INTO form_fields (id, form_id, field_id) VALUES (?, ?, ?)",
				fieldID, int64(f), fieldID); err != nil {
				return err
			}
		}
	}
	for i := 1; i <= size.Providers; i++ {
		pid, err := newPerson()
		if err != nil {
			return err
		}
		if err := exec("INSERT INTO providers (id, person_id, name, retired) VALUES (?, ?, ?, FALSE)",
			int64(i), pid, fmt.Sprintf("provider-%d", i)); err != nil {
			return err
		}
	}
	for i := 1; i <= size.Drugs; i++ {
		if err := exec("INSERT INTO drugs (id, concept_id, name, retired) VALUES (?, ?, ?, FALSE)",
			int64(i), int64(1+rng.Intn(size.Concepts)), fmt.Sprintf("drug-%d", i)); err != nil {
			return err
		}
	}
	for i := 1; i <= size.Programs; i++ {
		if err := exec("INSERT INTO programs (id, concept_id, name) VALUES (?, ?, ?)",
			int64(i), int64(1+rng.Intn(size.Concepts)), fmt.Sprintf("program-%d", i)); err != nil {
			return err
		}
	}
	for i := 1; i <= size.Modules; i++ {
		if err := exec("INSERT INTO modules (id, name, started) VALUES (?, ?, TRUE)", int64(i), fmt.Sprintf("module-%d", i)); err != nil {
			return err
		}
	}
	for i := 1; i <= size.Tasks; i++ {
		if err := exec("INSERT INTO scheduler_tasks (id, name, started) VALUES (?, ?, TRUE)", int64(i), fmt.Sprintf("task-%d", i)); err != nil {
			return err
		}
	}
	for i := 1; i <= size.HL7Queue; i++ {
		if err := exec("INSERT INTO hl7_in_queue (id, source_id, state) VALUES (?, ?, 0)", int64(i), int64(1+rng.Intn(3))); err != nil {
			return err
		}
	}
	for i := 1; i <= 6; i++ {
		if err := exec("INSERT INTO relationship_types (id, a_is_to_b, b_is_to_a) VALUES (?, ?, ?)",
			int64(i), fmt.Sprintf("rel-a-%d", i), fmt.Sprintf("rel-b-%d", i)); err != nil {
			return err
		}
	}

	// Patients, encounters, observations, visits, orders, programs.
	encID, obsID, visitID, orderID, idID, ppID := int64(0), int64(0), int64(0), int64(0), int64(0), int64(0)
	for p := 1; p <= size.Patients; p++ {
		pid, err := newPerson()
		if err != nil {
			return err
		}
		if err := exec("INSERT INTO patients (id, person_id, creator) VALUES (?, ?, 1)", int64(p), pid); err != nil {
			return err
		}
		idID++
		if err := exec("INSERT INTO patient_identifiers (id, patient_id, identifier, id_type) VALUES (?, ?, ?, 'MRN')",
			idID, int64(p), fmt.Sprintf("MRN-%06d", p)); err != nil {
			return err
		}
		for v := 0; v < size.VisitsPer; v++ {
			visitID++
			if err := exec("INSERT INTO visits (id, patient_id, visit_type_id, active) VALUES (?, ?, ?, ?)",
				visitID, int64(p), int64(1+rng.Intn(5)), v == 0); err != nil {
				return err
			}
		}
		for e := 0; e < size.EncountersPer; e++ {
			encID++
			if err := exec("INSERT INTO encounters (id, patient_id, encounter_type, visit_id, form_id, provider_id, date_idx) VALUES (?, ?, ?, ?, ?, ?, ?)",
				encID, int64(p), int64(1+rng.Intn(5)), visitID, int64(1+rng.Intn(size.Forms)), int64(1+rng.Intn(size.Providers)), int64(e)); err != nil {
				return err
			}
			for o := 0; o < size.ObsPerEncounter; o++ {
				obsID++
				if err := exec("INSERT INTO obs (id, encounter_id, patient_id, concept_id, value_num, value_text, top_level) VALUES (?, ?, ?, ?, ?, ?, TRUE)",
					obsID, encID, int64(p), int64(1+rng.Intn(size.Concepts)), float64(rng.Intn(200)), "obs-value"); err != nil {
					return err
				}
			}
		}
		if rng.Intn(2) == 0 {
			orderID++
			if err := exec("INSERT INTO orders (id, patient_id, concept_id, drug_id, active) VALUES (?, ?, ?, ?, TRUE)",
				orderID, int64(p), int64(1+rng.Intn(size.Concepts)), int64(1+rng.Intn(size.Drugs))); err != nil {
				return err
			}
		}
		if rng.Intn(3) == 0 {
			ppID++
			if err := exec("INSERT INTO patient_programs (id, patient_id, program_id, active) VALUES (?, ?, ?, TRUE)",
				ppID, int64(p), int64(1+rng.Intn(size.Programs))); err != nil {
				return err
			}
		}
	}

	// Alerts for the admin user (the alertList benchmark iterates these).
	for i := 1; i <= size.Alerts; i++ {
		uid := int64(1 + rng.Intn(size.Users))
		if i <= size.Alerts/2 {
			uid = AdminUserID
		}
		if err := exec("INSERT INTO alerts (id, user_id, text, satisfied) VALUES (?, ?, ?, FALSE)",
			int64(i), uid, fmt.Sprintf("alert-%d", i)); err != nil {
			return err
		}
	}
	return nil
}
