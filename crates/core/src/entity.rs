//! Entities: the roles data flows between in the data life cycle
//! (paper §2.1 — data-subject, controller, processor, auditor).

use std::collections::HashMap;

use crate::ids::EntityId;

/// The regulatory role an entity plays.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum EntityKind {
    /// The natural person the data identifies.
    DataSubject,
    /// Decides purposes and means of processing (GDPR Art. 4(7)).
    Controller,
    /// Processes data on behalf of a controller (Art. 4(8)).
    Processor,
    /// Verifies and certifies compliance.
    Auditor,
    /// A supervisory authority / DPA.
    Regulator,
    /// Any other recipient (e.g. an ad partner).
    ThirdParty,
}

impl EntityKind {
    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            EntityKind::DataSubject => "data-subject",
            EntityKind::Controller => "controller",
            EntityKind::Processor => "processor",
            EntityKind::Auditor => "auditor",
            EntityKind::Regulator => "regulator",
            EntityKind::ThirdParty => "third-party",
        }
    }
}

/// A named participant in the system.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Entity {
    /// Stable identifier.
    pub id: EntityId,
    /// Display name ("Netflix", "AWS", "user-1234").
    pub name: String,
    /// Regulatory role.
    pub kind: EntityKind,
}

/// Registry allocating ids and resolving entities.
#[derive(Clone, Debug, Default)]
pub struct EntityRegistry {
    entities: Vec<Entity>,
    by_name: HashMap<String, EntityId>,
}

impl EntityRegistry {
    /// An empty registry.
    pub fn new() -> EntityRegistry {
        EntityRegistry::default()
    }

    /// Register a new entity; names must be unique.
    ///
    /// # Panics
    /// Panics if the name is already registered (entity names act as keys in
    /// experiment configs; silent duplicates would corrupt provenance).
    pub fn register(&mut self, name: &str, kind: EntityKind) -> EntityId {
        assert!(
            !self.by_name.contains_key(name),
            "entity name {name:?} already registered"
        );
        let id = EntityId(self.entities.len() as u32);
        self.entities.push(Entity {
            id,
            name: name.to_owned(),
            kind,
        });
        self.by_name.insert(name.to_owned(), id);
        id
    }

    /// Resolve an entity by id.
    pub fn get(&self, id: EntityId) -> Option<&Entity> {
        self.entities.get(id.0 as usize)
    }

    /// Resolve an entity by name.
    pub fn by_name(&self, name: &str) -> Option<&Entity> {
        self.by_name.get(name).and_then(|id| self.get(*id))
    }

    /// Number of registered entities.
    pub fn len(&self) -> usize {
        self.entities.len()
    }

    /// True if no entity is registered.
    pub fn is_empty(&self) -> bool {
        self.entities.is_empty()
    }

    /// Iterate over all entities in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &Entity> {
        self.entities.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_resolve() {
        let mut r = EntityRegistry::new();
        let netflix = r.register("Netflix", EntityKind::Controller);
        let aws = r.register("AWS", EntityKind::Processor);
        assert_eq!(r.get(netflix).unwrap().name, "Netflix");
        assert_eq!(r.by_name("AWS").unwrap().id, aws);
        assert_eq!(r.len(), 2);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn duplicate_name_panics() {
        let mut r = EntityRegistry::new();
        r.register("X", EntityKind::Controller);
        r.register("X", EntityKind::Processor);
    }

    #[test]
    fn kind_labels() {
        assert_eq!(EntityKind::DataSubject.label(), "data-subject");
        assert_eq!(EntityKind::Regulator.label(), "regulator");
    }

    #[test]
    fn missing_lookups_are_none() {
        let r = EntityRegistry::new();
        assert!(r.get(EntityId(0)).is_none());
        assert!(r.by_name("nobody").is_none());
        assert!(r.is_empty());
    }
}
